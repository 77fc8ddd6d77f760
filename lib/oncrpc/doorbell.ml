(* Doorbell-style batching of small wire records.

   The RPCAcc observation: in the small-call regime the per-submit cost
   (syscall, vmexit, per-packet work) dominates, so the guest should
   coalesce N call records into one device submit and ring the doorbell
   once. This module wraps an {!Transport.t}: writes are staged into a
   pending batch, and the batch goes to the underlying transport as ONE
   vectored send when the flush policy fires — on record count, on byte
   volume, on a virtual-time deadline armed when the batch opens, or
   unconditionally before a [recv] blocks (a reply cannot arrive for a
   call that was never submitted).

   The staged copy is deliberate and matches the channel's sk_buff
   contract: the encoder reuses its buffers as soon as a call returns, so
   slices must be materialized into the batch buffer at stage time.

   Retransmissions compose naturally: a retried call re-enters the current
   (fresh) batch with its original xid, so the server's at-most-once dup
   cache still recognizes it — pinned by the fault-plan tests. *)

type policy = {
  max_records : int;  (** flush when the batch holds this many records *)
  max_bytes : int;  (** flush when the batch holds this many bytes *)
  deadline_ns : int64 option;
      (** flush at [open + deadline] in virtual time (needs [schedule]) *)
}

let default_policy =
  { max_records = 32; max_bytes = 64 * 1024; deadline_ns = None }

type flush_cause = Records | Bytes | Deadline | Recv | Explicit

type stats = {
  flushes : int;
  flush_records : int;  (** count-triggered flushes *)
  flush_bytes : int;
  flush_deadline : int;
  flush_recv : int;
  batched : int;  (** total records staged *)
  max_batch : int;  (** largest batch flushed, in records *)
}

(* Counters are mutable fields, bumped in place; {!stats} builds the
   public record on demand. The batch is staged in the doorbell's own
   bytes and submitted with one [send], whose receiver copies it: the
   batch is flattened once. *)
type t = {
  inner : Transport.t;
  policy : policy;
  schedule : (int64 -> (unit -> unit) -> unit) option;
      (* [schedule delay_ns k]: run [k] after [delay_ns] of virtual time *)
  mutable buf : bytes;
  mutable len : int;  (* staged bytes of [buf] *)
  mutable records : int;
  mutable generation : int;
      (* bumped on every flush so a pending deadline callback armed for an
         already-flushed batch recognizes itself as stale *)
  mutable flushes : int;
  mutable flush_records : int;
  mutable flush_bytes : int;
  mutable flush_deadline : int;
  mutable flush_recv : int;
  mutable batched : int;
  mutable max_batch : int;
  mutable obs : Obs.Recorder.t;
  mutable transport : Transport.t;
}

let flush_counts t cause n =
  (match cause with
  | Records -> t.flush_records <- t.flush_records + 1
  | Bytes -> t.flush_bytes <- t.flush_bytes + 1
  | Deadline -> t.flush_deadline <- t.flush_deadline + 1
  | Recv -> t.flush_recv <- t.flush_recv + 1
  | Explicit -> ());
  t.flushes <- t.flushes + 1;
  if n > t.max_batch then t.max_batch <- n

let flush_as t cause =
  if t.records > 0 then begin
    let n = t.records and len = t.len in
    t.len <- 0;
    t.records <- 0;
    t.generation <- t.generation + 1;
    flush_counts t cause n;
    Obs.Recorder.incr t.obs "rpc.doorbell_flush";
    Obs.Recorder.observe t.obs "rpc.batch_occupancy" (Int64.of_int n);
    (* one submit for the whole batch — the single doorbell ring *)
    t.inner.Transport.send t.buf 0 len
  end

let arm_deadline t =
  match (t.policy.deadline_ns, t.schedule) with
  | Some d, Some schedule ->
      let gen = t.generation in
      schedule d (fun () ->
          if t.generation = gen && t.records > 0 then flush_as t Deadline)
  | _ -> ()

let reserve t n =
  if t.len + n > Bytes.length t.buf then begin
    let buf = Bytes.create (max (t.len + n) (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let add t s off n =
  reserve t n;
  Bytes.blit_string s off t.buf t.len n;
  t.len <- t.len + n

let rec add_slices t = function
  | [] -> ()
  | { Xdr.Iovec.base; off; len } :: rest ->
      add t base off len;
      add_slices t rest

let staged t =
  t.records <- t.records + 1;
  t.batched <- t.batched + 1;
  if t.records >= t.policy.max_records then flush_as t Records
  else if t.len >= t.policy.max_bytes then flush_as t Bytes

let stage t iov =
  if t.records = 0 then arm_deadline t;
  add_slices t iov;
  staged t

let stage_bytes t buf off len =
  if t.records = 0 then arm_deadline t;
  add t (Bytes.unsafe_to_string buf) off len;
  staged t

let wrap ?(policy = default_policy) ?schedule inner =
  if policy.max_records < 1 || policy.max_bytes < 1 then
    invalid_arg "Doorbell.wrap";
  let t =
    { inner; policy; schedule; buf = Bytes.create 4096; len = 0; records = 0;
      generation = 0; flushes = 0; flush_records = 0; flush_bytes = 0;
      flush_deadline = 0; flush_recv = 0; batched = 0; max_batch = 0;
      obs = Obs.Recorder.null; transport = inner }
  in
  let recv buf off len =
    flush_as t Recv;
    t.inner.Transport.recv buf off len
  in
  let close () =
    flush_as t Explicit;
    t.inner.Transport.close ()
  in
  t.transport <-
    Transport.make ~sendv:(stage t) ~send:(stage_bytes t) ~recv ~close ();
  t

let transport t = t.transport
let flush t = flush_as t Explicit
let pending_records t = t.records

let stats t : stats =
  { flushes = t.flushes; flush_records = t.flush_records;
    flush_bytes = t.flush_bytes; flush_deadline = t.flush_deadline;
    flush_recv = t.flush_recv; batched = t.batched; max_batch = t.max_batch }

let set_obs t obs = t.obs <- obs
