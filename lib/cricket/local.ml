(* Split a raw byte stream of record-marked fragments into its complete
   records, and the offset where a record whose tail is still to come
   starts (the length of the stream when there is none). *)
let records_of_stream stream =
  let src = Oncrpc.Record.Of_string stream in
  let rec loop pos acc =
    match Oncrpc.Record.record_end src pos with
    | -1 -> (List.rev acc, pos)
    | stop -> loop stop (Oncrpc.Record.payload src pos ~stop :: acc)
  in
  loop 0 []

let transport_of_dispatch dispatch =
  (* The start of a record the client has not finished writing: it waits
     for the rest, as it would in a socket buffer. *)
  let held = ref "" in
  Oncrpc.Transport.loopback ~peer:(fun request ->
      let stream = if !held = "" then request else !held ^ request in
      held := "";
      let records, stop = records_of_stream stream in
      if stop < String.length stream then
        held := String.sub stream stop (String.length stream - stop);
      records
      |> List.filter_map (fun record ->
             match dispatch record with
             | "" -> None (* one-way call: no reply record *)
             | reply -> Some (Oncrpc.Record.to_wire reply))
      |> String.concat "")

let transport server = transport_of_dispatch (Server.dispatch server)

let transport_for server ~tenant =
  transport_of_dispatch (fun request ->
      Server.dispatch_for server ~tenant request)

let connect server = Client.create ~transport:(transport server) ()

let connect_for server ~tenant =
  Client.create ~transport:(transport_for server ~tenant) ()
