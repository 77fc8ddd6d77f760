(* Offset-tracked send ring: a deque of immutable payload slices plus a
   consumed-bytes offset into the head slice. Queueing data and carving
   MSS/TSO-burst segments off the front are both O(slices touched) — the
   seed implementation rebuilt the whole remaining buffer once per
   segment, which made a bulk send quadratic in the transfer size. *)

type t = {
  q : Xdr.Iovec.slice Queue.t;
  mutable head_off : int;  (* bytes of the head slice already consumed *)
  mutable length : int;  (* unconsumed bytes across the whole ring *)
}

let create () = { q = Queue.create (); head_off = 0; length = 0 }

let length t = t.length

let push_slice t (s : Xdr.Iovec.slice) =
  if s.Xdr.Iovec.len > 0 then begin
    Queue.add s t.q;
    t.length <- t.length + s.Xdr.Iovec.len
  end

let push_iovec t iov = List.iter (push_slice t) iov

(* Copying enqueue for callers that may reuse [b] after the call (the
   plain [Endpoint.send] contract). The copy is O(len) once — the slices
   carved off it later are views. *)
let push_bytes t b =
  if Bytes.length b > 0 then
    push_slice t (Xdr.Iovec.slice (Bytes.to_string b))

(* The front [n] bytes, in order and without reversing an accumulator: a
   segment cut from inside one slice comes back as one fresh slice, and a
   slice consumed whole from its start is reused as it is. *)
let rec take_front t n =
  if n = 0 then []
  else begin
    let s = Queue.peek t.q in
    let avail = s.Xdr.Iovec.len - t.head_off in
    if avail <= n then begin
      ignore (Queue.pop t.q);
      let piece =
        if t.head_off = 0 then s else Xdr.Iovec.sub_slice s t.head_off avail
      in
      t.head_off <- 0;
      piece :: take_front t (n - avail)
    end
    else begin
      let piece = Xdr.Iovec.sub_slice s t.head_off n in
      t.head_off <- t.head_off + n;
      [ piece ]
    end
  end

let take t n =
  if n < 0 || n > t.length then invalid_arg "Txring.take";
  t.length <- t.length - n;
  take_front t n
