module Inbox = Oncrpc.Record.Inbox
module Outbox = Oncrpc.Record.Outbox

let transport_of_dispatch dispatch =
  (* Written bytes are reassembled into records as they arrive; a record
     whose tail has not been written waits in [inbox], as it would in a
     socket buffer. [written] says whether anything came since the last
     dispatch. *)
  let inbox = Inbox.create () and outbox = Outbox.create () in
  let written = ref false and closed = ref false in
  let add s off len =
    if len > 0 then begin
      written := true;
      Inbox.add inbox s off len
    end
  in
  let send buf off len =
    if !closed then raise Oncrpc.Transport.Closed;
    add (Bytes.unsafe_to_string buf) off len
  in
  let add_slice s = add s.Xdr.Iovec.base s.Xdr.Iovec.off s.Xdr.Iovec.len in
  let sendv iov =
    if !closed then raise Oncrpc.Transport.Closed;
    Xdr.Iovec.iter add_slice iov
  in
  (* The first read after a write dispatches every complete record in
     order. If one raises, the later ones and the replies so far are
     dropped. *)
  let serve record =
    match dispatch record with
    | "" -> () (* one-way call: no reply record *)
    | reply -> Outbox.push outbox reply
  in
  let dispatch_all () =
    if not !written then raise Oncrpc.Transport.Closed;
    written := false;
    match Inbox.take inbox serve with
    | () -> ()
    | exception e ->
        Outbox.clear outbox;
        raise e
  in
  let recv buf off len =
    if !closed then 0
    else begin
      if Outbox.is_empty outbox then dispatch_all ();
      Outbox.read outbox buf off len
    end
  in
  Oncrpc.Transport.make ~sendv ~send ~recv ~close:(fun () -> closed := true) ()

let transport server = transport_of_dispatch (Server.dispatch server)

let transport_for server ~tenant =
  transport_of_dispatch (fun request ->
      Server.dispatch_for server ~tenant request)

let connect server = Client.create ~transport:(transport server) ()

let connect_for server ~tenant =
  Client.create ~transport:(transport_for server ~tenant) ()
