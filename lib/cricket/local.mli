(** In-process client↔server wiring.

    Connects a {!Client} to a {!Server} without sockets or threads, through
    a record-level loopback: there is no byte stream in either direction.
    Fragment headers are parsed as the client writes them
    ({!Oncrpc.Record.Inbox}), and each fragment's payload is copied once,
    into a buffer of exactly the size its header claims. The first read
    dispatches the complete records synchronously, in order, and serves the
    replies framed as they are read ({!Oncrpc.Record.Outbox}): headers from
    a 4-byte scratch, payload bytes blitted from the reply straight into the
    reader's buffer. Record marking still happens on the "wire", so the
    client's fragmentation code paths are exercised. Nothing is kept once a
    reply has been read: a tenant that has made a call holds no more than
    one that has not.

    This is the transport of the tenancy harness, the GPU-kernel benchmark,
    the examples and most tests. *)

val transport : Server.t -> Oncrpc.Transport.t
(** A fresh client-side transport whose peer is [server]. *)

val transport_of_dispatch : (string -> string) -> Oncrpc.Transport.t
(** Same, over any record-level dispatch function. Only complete records
    are dispatched: one whose tail has not been written yet waits for the
    rest (a read meanwhile finds no reply, and a further read with nothing
    written since raises {!Oncrpc.Transport.Closed}). A dispatch returning
    [""] is a one-way call and sends no reply. A dispatch that raises makes
    the read raise; the later records of that batch, and the replies to the
    earlier ones, are dropped. A fragment header claiming more than a record
    may hold makes the next read raise {!Oncrpc.Record.Oversized}, and
    everything written up to then is dropped. *)

val connect : Server.t -> Client.t
(** [Client.create] over {!transport}. *)

val connect_for : Server.t -> tenant:string -> Client.t
(** Like {!connect}, but every record goes through
    {!Server.dispatch_for} on behalf of [tenant] — admission, per-tenant
    accounting and lease hooks apply. *)
