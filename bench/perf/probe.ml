(* Host clock, allocation counter and the layer accounting the traced run
   installs at the boundaries between client, channel and server.

   Nothing here allocates on the measured path: the clock is
   CLOCK_MONOTONIC read through an unboxed, no-alloc external, the
   allocation counter is [Gc.minor_words] (also unboxed), and every
   accumulator is an [int] field or array slot. The harness checks this
   with an empty op before every run. *)

let[@inline] now () = Int64.to_int (Monotonic_clock.now ())
let[@inline] words () = int_of_float (Gc.minor_words ())

(* The layers, outermost first. [loop] is whatever issues the ops:
   Tenancy.Core's serving loop on tenants-contended, the bench's closed
   loop elsewhere. *)
let loop = 0
let client = 1
let channel = 2
let server = 3
let layer_names = [| "loop"; "client"; "channel"; "server" |]

type state = {
  self_ns : int array;
  self_words : int array;
  mutable cur : int;
  mutable last_ns : int;
  mutable last_words : int;
  mutable sends : int;
  mutable recvs : int;
  mutable bytes : int;
}

let st =
  {
    self_ns = Array.make 4 0;
    self_words = Array.make 4 0;
    cur = loop;
    last_ns = 0;
    last_words = 0;
    sends = 0;
    recvs = 0;
    bytes = 0;
  }

let reset () =
  Array.fill st.self_ns 0 4 0;
  Array.fill st.self_words 0 4 0;
  st.cur <- loop;
  st.sends <- 0;
  st.recvs <- 0;
  st.bytes <- 0;
  st.last_ns <- now ();
  st.last_words <- words ()

(* Charge the time and words since the last boundary to the current layer
   and make [next] current; returns the layer left, for the matching
   switch back. Self time is exclusive by construction: whatever nesting
   the program takes (a server dispatch run from inside a transport read,
   or from an engine event a client charge fires), each interval belongs
   to exactly one layer. *)
let switch next =
  let t = now () and w = words () in
  let c = st.cur in
  st.self_ns.(c) <- st.self_ns.(c) + (t - st.last_ns);
  st.self_words.(c) <- st.self_words.(c) + (w - st.last_words);
  st.last_ns <- t;
  st.last_words <- w;
  st.cur <- next;
  c

let dispatch f =
 fun record ->
  let prev = switch server in
  match f record with
  | reply ->
      ignore (switch prev);
      reply
  | exception e ->
      ignore (switch prev);
      raise e

let transport (t : Oncrpc.Transport.t) =
  let send buf off len =
    let prev = switch channel in
    st.sends <- st.sends + 1;
    st.bytes <- st.bytes + len;
    match t.send buf off len with
    | () -> ignore (switch prev)
    | exception e ->
        ignore (switch prev);
        raise e
  in
  let recv buf off len =
    let prev = switch channel in
    st.recvs <- st.recvs + 1;
    match t.recv buf off len with
    | got ->
        st.bytes <- st.bytes + got;
        ignore (switch prev);
        got
    | exception e ->
        ignore (switch prev);
        raise e
  in
  let sendv =
    Option.map
      (fun sendv iov ->
        let prev = switch channel in
        st.sends <- st.sends + 1;
        st.bytes <- st.bytes + Xdr.Iovec.length iov;
        match sendv iov with
        | () -> ignore (switch prev)
        | exception e ->
            ignore (switch prev);
            raise e)
      t.sendv
  in
  Oncrpc.Transport.make ?sendv ~send ~recv ~close:t.close ()

(* Per-op host latencies, kept outside the OCaml heap so a long run
   neither allocates while it measures nor inflates [heap_peak_mib]. *)
module Samples = struct
  open Bigarray

  type t = { data : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create capacity = { data = Array1.create Int C_layout capacity; n = 0 }
  let clear t = t.n <- 0

  (* Samples past capacity are dropped; the run's throughput still counts
     them, only the latency percentiles use the stored prefix. *)
  let add t v =
    if t.n < Array1.dim t.data then begin
      Array1.unsafe_set t.data t.n v;
      t.n <- t.n + 1
    end

  (* The stored samples from index [from] on (a trial's, when [from] is
     the count before it), ascending. *)
  let sorted ?(from = 0) t =
    let a = Array.init (t.n - from) (fun i -> Array1.unsafe_get t.data (from + i)) in
    Array.sort Int.compare a;
    a
end

(* The timing every workload's loop goes through: [f x] runs as one
   measured op (as the client layer when traced), its host time divided
   over the [per] ops it stands for becomes one latency sample, and the
   host time is returned. Allocates nothing of its own; the harness checks
   that with an empty op ([harness.alloc_words_per_op]). *)
let timed ~traced samples ~per f x =
  let t0 = now () in
  (if traced then begin
     let prev = switch client in
     match f x with
     | () -> ignore (switch prev)
     | exception e ->
         ignore (switch prev);
         raise e
   end
   else f x);
  let dt = now () - t0 in
  Samples.add samples (dt / per);
  dt
