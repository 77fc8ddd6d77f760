(* The records of a byte stream held in memory, read one at a time with
   [Oncrpc.Record.read_opt] from a transport over the string: the walker
   the byte-stream references of the record-level channels frame with. *)

(* [walk stream f] applies [f] to every complete record of [stream], in
   order, and returns the offset just past the last one: where a record
   whose tail is still to come starts, or the stream's length. A header
   whose claim takes its record past [max_record_size] raises
   [Oncrpc.Record.Oversized] when it is reached, after [f] has seen the
   records ahead of it. *)
let walk ?max_record_size stream f =
  let pos = ref 0 in
  let recv buf off len =
    let n = min len (String.length stream - !pos) in
    Bytes.blit_string stream !pos buf off n;
    pos := !pos + n;
    n
  in
  let tr =
    Oncrpc.Transport.make ~send:(fun _ _ _ -> ()) ~recv ~close:ignore ()
  in
  let rec loop start =
    match Oncrpc.Record.read_opt ?max_record_size tr with
    | None | (exception Oncrpc.Transport.Closed) -> start
    | Some record ->
        f record;
        loop !pos
  in
  loop 0

(* The complete records of [stream], and the offset past the last one. *)
let records ?max_record_size stream =
  let acc = ref [] in
  let stop = walk ?max_record_size stream (fun r -> acc := r :: !acc) in
  (List.rev !acc, stop)
