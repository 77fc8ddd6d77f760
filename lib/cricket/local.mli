(** In-process client↔server wiring.

    Connects a {!Client} to a {!Server} without sockets or threads: client
    writes are buffered, and each complete record is dispatched to the
    server synchronously. Full record-marking framing still happens on the
    "wire", so fragmentation code paths are exercised. This is the default
    transport for tests, examples and the virtual-time benchmarks (where it
    is wrapped by the cost-charging channel in the [unikernel] library). *)

val transport : Server.t -> Oncrpc.Transport.t
(** A fresh client-side transport whose peer is [server]. *)

val transport_of_dispatch : (string -> string) -> Oncrpc.Transport.t
(** Same, over any record-level dispatch function. Only complete records
    are dispatched: one whose tail has not been written yet waits for the
    rest (a read meanwhile finds no reply), and a fragment header claiming
    more than a record may hold makes the read raise
    {!Oncrpc.Record.Oversized}. *)

val transport_for : Server.t -> tenant:string -> Oncrpc.Transport.t
(** Like {!transport}, but every record goes through
    {!Server.dispatch_for} on behalf of [tenant] — admission, per-tenant
    accounting and lease hooks apply. *)

val connect : Server.t -> Client.t
(** [Client.create] over {!transport}. *)

val connect_for : Server.t -> tenant:string -> Client.t
(** [Client.create] over {!transport_for}. *)
