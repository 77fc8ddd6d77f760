module Time = Simnet.Time
module Engine = Simnet.Engine
module Offload = Simnet.Offload

(* The RPC-aware offload engine (RPCAcc direction): a device block that
   sits behind the netdev's receive path and understands ONC RPC record
   marking. Depending on the negotiated feature bits it performs, in
   "hardware":

   - [rpc_framing]: record-mark framing and reassembly — the host receives
     whole RPC records instead of a TCP byte stream;
   - [rpc_parse]: the ONC RPC call-header parse (xid, prog/vers/proc plus
     the credential/verifier skip) producing a descriptor with the body
     offset;
   - [rpc_steer]: steering of parsed calls into per-(proc, tenant)
     dispatch queues, so host software never routes a call.

   This module deliberately does NOT depend on [Oncrpc]: the parser is an
   independent reimplementation of the wire layout (RFC 5531 §8–§11), which
   is exactly what lets the test suite check it against the software
   [Oncrpc.Message] decoder as two implementations of one spec.

   Every feature that is *not* negotiated is charged as host software work
   against the engine clock (framing copy, header parse, dispatch-table
   routing), using the host profile's per-byte copy cost plus fixed
   per-record costs — the per-call CPU overhead the small-call benchmark
   measures. Negotiated features charge the much smaller device-side
   costs. All charges advance the shared virtual clock, so the benefit
   shows up in virtual-time throughput, deterministically. *)

type parsed = {
  xid : int32;
  prog : int;
  vers : int;
  proc : int;
  body_off : int;  (** byte offset of the procedure arguments *)
}

type reject =
  | Truncated of int  (** record length at the point the header ran out *)
  | Not_a_call of int32  (** msg_type field was not CALL(0) *)
  | Bad_rpc_version of int  (** rpcvers field was not 2 *)
  | Bad_auth of string  (** credential/verifier violates RFC 5531 §8.2 *)

let reject_to_string = function
  | Truncated n -> Printf.sprintf "truncated header (%d bytes)" n
  | Not_a_call m -> Printf.sprintf "msg_type %ld is not CALL" m
  | Bad_rpc_version v -> Printf.sprintf "rpc version %d is not 2" v
  | Bad_auth detail -> "bad auth: " ^ detail

(* --- the "hardware" call-header parser --- *)

let max_auth_body = 400 (* RFC 5531 §8.2: opaque_auth body bound *)

(* The parser runs once per received call, so it is written as straight
   tests on offsets: no closures and no intermediate results. Only the
   descriptor it returns (or the reject) is allocated. *)

let[@inline] u32 s off =
  (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

let rec zero_pad s i stop =
  i >= stop || (s.[i] = '\000' && zero_pad s (i + 1) stop)

(* [auth_end s len off] is the offset just past the opaque_auth at [off]
   (flavor + variable opaque, body <= 400 bytes, padded to the 4-byte XDR
   boundary), or one of the negative codes below. XDR pad bytes must be
   zero (RFC 4506 §3): the software decoder enforces this, so the device
   does too. *)
let auth_truncated = -1
let auth_too_long = -2
let auth_bad_pad = -3

let auth_end s len off =
  if len < off + 8 then auth_truncated
  else
    let blen = u32 s (off + 4) in
    if blen > max_auth_body then auth_too_long
    else
      let padded = (blen + 3) land lnot 3 in
      if len < off + 8 + padded then auth_truncated
      else if not (zero_pad s (off + 8 + blen) (off + 8 + padded)) then
        auth_bad_pad
      else off + 8 + padded

let auth_reject s len which off code =
  if code = auth_truncated then Truncated len
  else if code = auth_too_long then
    Bad_auth
      (Printf.sprintf "%s body %d > %d" which (u32 s (off + 4)) max_auth_body)
  else Bad_auth (which ^ " has nonzero pad bytes")

let parse_call_header s =
  let len = String.length s in
  if len < 8 then Error (Truncated len)
  else if u32 s 4 <> 0 then Error (Not_a_call (String.get_int32_be s 4))
  else if len < 12 then Error (Truncated len)
  else
    let rpcvers = u32 s 8 in
    if rpcvers <> 2 then Error (Bad_rpc_version rpcvers)
    else if len < 24 then Error (Truncated len)
    else
      let verf = auth_end s len 24 in
      if verf < 0 then Error (auth_reject s len "cred" 24 verf)
      else
        let body_off = auth_end s len verf in
        if body_off < 0 then Error (auth_reject s len "verf" verf body_off)
        else
          Ok
            { xid = String.get_int32_be s 0; prog = u32 s 12;
              vers = u32 s 16; proc = u32 s 20; body_off }

(* --- cost model --- *)

type costs = {
  sw_frame_ns : int;  (** host software per-record framing/reassembly *)
  sw_parse_ns : int;  (** host software header decode per call *)
  sw_route_ns : int;  (** host software dispatch-table routing per call *)
  hw_frame_ns : int;  (** device record completion *)
  hw_parse_ns : int;  (** device header parse *)
  hw_steer_ns : int;  (** device queue steering *)
}

(* Software costs are per-call CPU work on the host (RPCAcc's Figure 4
   breakdown: framing + protocol parse + dispatch dominate small calls);
   device costs are descriptor-writes on a PCIe block. The software
   framing path additionally pays the profile's per-byte reassembly
   copy. *)
let default_costs =
  {
    sw_frame_ns = 450;
    sw_parse_ns = 1_400;
    sw_route_ns = 500;
    hw_frame_ns = 40;
    hw_parse_ns = 60;
    hw_steer_ns = 45;
  }

type entry = {
  record : string;
  ident : string;
  parse : (parsed, reject) result option;
      (** [None] when [rpc_parse] was not negotiated (host parses). *)
}

type stats = {
  records : int;
  hw_records : int;  (** records completed by device framing *)
  sw_records : int;  (** records reassembled by host software *)
  parse_hits : int;
  parse_rejects : int;  (** device punted a malformed header to the host *)
  steered : int;
  queues : int;  (** distinct (proc, ident) steering queues created *)
  max_queue_depth : int;
  pool_acquires : int;  (** staging buffers drawn from the allocator *)
}

type key = int * string (* proc, ident; (-1, ident) = unsteered FIFO *)

(* Counters are mutable fields, bumped in place; {!stats} builds the
   public record on demand. *)
type t = {
  engine : Engine.t;
  profile : Simnet.Hostprofile.t;
  features : Offload.t;  (** post-clamp negotiated feature set *)
  costs : costs;
  alloc : int -> bytes;
  free : bytes -> unit;
  mutable ident : string;
  (* incremental record-marking parser state *)
  hdr : Bytes.t;
  mutable hdr_pos : int;
  mutable frag_need : int;
  mutable frag_last : bool;
  mutable in_frag : bool;
  (* staging buffer for the fragment being reassembled *)
  mutable staging : bytes;
  mutable staging_len : int;
  joined : Buffer.t;  (* earlier fragments of a multi-fragment record *)
  (* steering queues: found by key, drained round-robin in creation
     order. The queue of the previous record is remembered with its key,
     so a run of calls to one (proc, ident) builds no key and hashes
     nothing. *)
  by_key : (key, entry Queue.t) Hashtbl.t;
  mutable order : entry Queue.t array;  (* creation order, [n_queues] used *)
  mutable n_queues : int;
  mutable last_proc : int;  (* [min_int]: no previous record *)
  mutable last_ident : string;
  mutable last_queue : entry Queue.t;
  mutable records : int;
  mutable hw_records : int;
  mutable sw_records : int;
  mutable parse_hits : int;
  mutable parse_rejects : int;
  mutable steered : int;
  mutable max_queue_depth : int;
  mutable pool_acquires : int;
  mutable obs : Obs.Recorder.t;
}

(* dependency clamps, same shape as Netdev.effective: header parse needs
   the device to own record boundaries; steering needs the parse result *)
let effective (f : Offload.t) =
  let f = { f with Offload.rpc_parse = f.Offload.rpc_parse && f.Offload.rpc_framing } in
  { f with Offload.rpc_steer = f.Offload.rpc_steer && f.Offload.rpc_parse }

let create ~engine ~profile ~features ?(costs = default_costs)
    ?(alloc = Bytes.create) ?(free = fun (_ : bytes) -> ()) ?(ident = "") () =
  {
    engine; profile; features = effective features; costs; alloc; free; ident;
    hdr = Bytes.create 4; hdr_pos = 0; frag_need = 0; frag_last = false;
    in_frag = false; staging = Bytes.empty; staging_len = 0;
    joined = Buffer.create 256; by_key = Hashtbl.create 8; order = [||];
    n_queues = 0; last_proc = min_int; last_ident = "";
    last_queue = Queue.create (); records = 0; hw_records = 0;
    sw_records = 0; parse_hits = 0; parse_rejects = 0; steered = 0;
    max_queue_depth = 0; pool_acquires = 0; obs = Obs.Recorder.null;
  }

let set_obs t obs = t.obs <- obs
let set_ident t ident = t.ident <- ident

let stats t : stats =
  { records = t.records; hw_records = t.hw_records;
    sw_records = t.sw_records; parse_hits = t.parse_hits;
    parse_rejects = t.parse_rejects; steered = t.steered;
    queues = t.n_queues; max_queue_depth = t.max_queue_depth;
    pool_acquires = t.pool_acquires }

(* Charge [ns] starting [at] ns into the record's charges, and return the
   running total. The clock moves once per record ({!complete_record}),
   by the sum, so a charge allocates nothing; the spans keep each
   charge's own interval. *)
let charge t ~at ns name =
  if ns > 0 && Obs.Recorder.enabled t.obs then begin
    (* root-level span: device/host-shim work that the channel's
       dispatched-time carve-out already subtracts from net.wait *)
    let t0 = Engine.now_ns t.engine + at in
    Obs.Recorder.span_event t.obs ~layer:"rpcdev" ~name
      ~start_ns:(Int64.of_int t0)
      ~stop_ns:(Int64.of_int (t0 + ns))
  end;
  at + max ns 0

let new_queue t key =
  let q = Queue.create () in
  Hashtbl.add t.by_key key q;
  if t.n_queues = Array.length t.order then begin
    let order = Array.make (max 4 (2 * t.n_queues)) q in
    Array.blit t.order 0 order 0 t.n_queues;
    t.order <- order
  end;
  t.order.(t.n_queues) <- q;
  t.n_queues <- t.n_queues + 1;
  q

let queue_for t proc =
  let ident = t.ident in
  if proc = t.last_proc && String.equal ident t.last_ident then t.last_queue
  else begin
    let key = (proc, ident) in
    let q =
      match Hashtbl.find_opt t.by_key key with
      | Some q -> q
      | None -> new_queue t key
    in
    t.last_proc <- proc;
    t.last_ident <- ident;
    t.last_queue <- q;
    q
  end

let enqueue t proc entry =
  let q = queue_for t proc in
  Queue.push entry q;
  let d = Queue.length q in
  if d > t.max_queue_depth then t.max_queue_depth <- d

(* A record left the framing stage: charge the parse/steer (or their
   software equivalents) and queue it for the host. *)
let complete_record t record =
  let f = t.features in
  t.records <- t.records + 1;
  let at =
    if f.Offload.rpc_framing then begin
      t.hw_records <- t.hw_records + 1;
      Obs.Recorder.incr t.obs "rpcdev.hw_record";
      charge t ~at:0 t.costs.hw_frame_ns "rpcdev.frame"
    end
    else begin
      t.sw_records <- t.sw_records + 1;
      Obs.Recorder.incr t.obs "rpcdev.sw_record";
      let copy_ns =
        int_of_float
          (float_of_int (String.length record)
          *. t.profile.Simnet.Hostprofile.copy_ns_per_byte)
      in
      charge t ~at:0 (t.costs.sw_frame_ns + copy_ns) "rpcdev.sw_frame"
    end
  in
  let parse =
    if f.Offload.rpc_parse then Some (parse_call_header record) else None
  in
  let at =
    match parse with
    | None -> charge t ~at t.costs.sw_parse_ns "rpcdev.sw_parse"
    | Some (Ok _) ->
        t.parse_hits <- t.parse_hits + 1;
        Obs.Recorder.incr t.obs "rpcdev.parse_hit";
        charge t ~at t.costs.hw_parse_ns "rpcdev.parse"
    | Some (Error _) ->
        (* malformed header: the device punts the raw record to the host,
           which re-parses in software to produce the protocol error *)
        t.parse_rejects <- t.parse_rejects + 1;
        Obs.Recorder.incr t.obs "rpcdev.parse_punt";
        let at = charge t ~at t.costs.hw_parse_ns "rpcdev.parse" in
        charge t ~at t.costs.sw_parse_ns "rpcdev.sw_parse"
  in
  (* a parsed proc is a u32, so -1 marks the unsteered FIFO *)
  let proc =
    match parse with
    | Some (Ok p) when f.Offload.rpc_steer -> p.proc
    | _ -> -1
  in
  let at =
    if proc >= 0 then begin
      t.steered <- t.steered + 1;
      Obs.Recorder.incr t.obs "rpcdev.steered";
      charge t ~at t.costs.hw_steer_ns "rpcdev.steer"
    end
    else
      (* host routes the call itself through the dispatch tables *)
      charge t ~at t.costs.sw_route_ns "rpcdev.sw_route"
  in
  Engine.advance_ns t.engine at;
  enqueue t proc { record; ident = t.ident; parse }

(* A fragment's payload is staged; [frag_last] says whether it ends the
   record. A record of one fragment is copied out of its staging buffer
   once; only a longer one is joined through [joined]. *)
let close_fragment t =
  let record =
    if t.frag_last && Buffer.length t.joined = 0 then
      Bytes.sub_string t.staging 0 t.staging_len
    else begin
      Buffer.add_subbytes t.joined t.staging 0 t.staging_len;
      if t.frag_last then begin
        let record = Buffer.contents t.joined in
        Buffer.clear t.joined;
        record
      end
      else ""
    end
  in
  if t.staging_len > 0 then begin
    t.free t.staging;
    t.staging <- Bytes.empty;
    t.staging_len <- 0
  end;
  if t.frag_last then complete_record t record

(* Incremental record-marking reassembly (RFC 5531 §11): O(1) state per
   byte. Fragment payloads stage through the pool allocator — these are
   the device-steered buffers whose pow2-bin recycling the pool must get
   right. [chunk] stays the caller's: Tcpchannel hands over the same
   scratch for every burst, one per channel, because channels run on
   several domains at once. *)
let feed_sub t chunk off len =
  if off < 0 || len < 0 || off > Bytes.length chunk - len then
    invalid_arg "Rpcdev.feed_sub";
  let stop = off + len in
  let pos = ref off in
  while !pos < stop do
    if not t.in_frag then begin
      let take = min (4 - t.hdr_pos) (stop - !pos) in
      Bytes.blit chunk !pos t.hdr t.hdr_pos take;
      t.hdr_pos <- t.hdr_pos + take;
      pos := !pos + take;
      if t.hdr_pos = 4 then begin
        let w = Bytes.get_int32_be t.hdr 0 in
        let last = Int32.logand w 0x80000000l <> 0l in
        let n = Int32.to_int (Int32.logand w 0x7fffffffl) in
        t.hdr_pos <- 0;
        t.in_frag <- true;
        t.frag_need <- n;
        t.frag_last <- last;
        if n > 0 then begin
          t.staging <- t.alloc n;
          t.staging_len <- 0;
          t.pool_acquires <- t.pool_acquires + 1
        end
      end
    end;
    if t.in_frag then begin
      let take = min t.frag_need (stop - !pos) in
      if take > 0 then begin
        Bytes.blit chunk !pos t.staging t.staging_len take;
        t.staging_len <- t.staging_len + take;
        t.frag_need <- t.frag_need - take;
        pos := !pos + take
      end;
      if t.frag_need = 0 then begin
        t.in_frag <- false;
        close_fragment t
      end
    end
  done

let feed t chunk = feed_sub t chunk 0 (Bytes.length chunk)

(* Drain the steering queues round-robin in creation order — one entry per
   queue per round — until empty. Creation order is itself deterministic
   (derived from arrival order), so the drain order is too. *)
let drain_iter t f =
  let progress = ref true in
  while !progress do
    progress := false;
    for i = 0 to t.n_queues - 1 do
      let q = t.order.(i) in
      if not (Queue.is_empty q) then begin
        progress := true;
        f (Queue.pop q)
      end
    done
  done

let drain t =
  let out = ref [] in
  drain_iter t (fun e -> out := e :: !out);
  List.rev !out

let pending t =
  let n = ref 0 in
  for i = 0 to t.n_queues - 1 do
    n := !n + Queue.length t.order.(i)
  done;
  !n
