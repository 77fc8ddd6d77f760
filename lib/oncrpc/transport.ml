type t = {
  send : bytes -> int -> int -> unit;
  recv : bytes -> int -> int -> int;
  close : unit -> unit;
  sendv : (Xdr.Iovec.t -> unit) option;
  hdr_scratch : bytes;
}

exception Closed
exception Timeout

type connect_error = Resolution_failed of { host : string; port : int }

exception Connect_error of connect_error

let () =
  Printexc.register_printer (function
    | Closed -> Some "Oncrpc.Transport.Closed"
    | Timeout -> Some "Oncrpc.Transport.Timeout"
    | Connect_error (Resolution_failed { host; port }) ->
        Some
          (Printf.sprintf
             "Oncrpc.Transport.Connect_error(Resolution_failed %s:%d)" host
             port)
    | _ -> None)

let make ?sendv ~send ~recv ~close () =
  { send; recv; close; sendv; hdr_scratch = Bytes.create 4 }

let send_string t s = t.send (Bytes.unsafe_of_string s) 0 (String.length s)

(* Vectored write: one gather call when the transport supports it,
   otherwise a per-slice loop over [send]. Either way no slice is blitted
   into an intermediate buffer here — the transport's own copy (socket
   write, queue append) is the only one on this path. *)
let writev t iov =
  match t.sendv with
  | Some f -> f iov
  | None ->
      Xdr.Iovec.iter
        (fun s ->
          t.send
            (Bytes.unsafe_of_string s.Xdr.Iovec.base)
            s.Xdr.Iovec.off s.Xdr.Iovec.len)
        iov

let rec recv_exact t buf off len =
  if len > 0 then begin
    let n = t.recv buf off len in
    if n = 0 then raise Closed;
    recv_exact t buf (off + n) (len - n)
  end

(* One direction of an in-memory pipe: a growable byte queue guarded by a
   mutex, with a condition to block readers until data or EOF arrives. *)
module Byte_queue = struct
  type q = {
    data : Buffer.t;
    mutable pos : int;  (* bytes of [data] already popped *)
    mutable closed : bool;
    lock : Mutex.t;
    cond : Condition.t;
  }

  let create () =
    { data = Buffer.create 1024; pos = 0; closed = false; lock = Mutex.create ();
      cond = Condition.create () }

  let push q buf off len =
    Mutex.lock q.lock;
    if q.closed then begin
      Mutex.unlock q.lock;
      raise Closed
    end;
    Buffer.add_subbytes q.data buf off len;
    Condition.signal q.cond;
    Mutex.unlock q.lock

  (* Gather write: all slices land under one lock acquisition, so a whole
     record (headers + payload views) is appended atomically. *)
  let pushv q iov =
    Mutex.lock q.lock;
    if q.closed then begin
      Mutex.unlock q.lock;
      raise Closed
    end;
    Xdr.Iovec.iter
      (fun s ->
        Buffer.add_substring q.data s.Xdr.Iovec.base s.Xdr.Iovec.off
          s.Xdr.Iovec.len)
      iov;
    Condition.signal q.cond;
    Mutex.unlock q.lock

  let pop q buf off len =
    Mutex.lock q.lock;
    while Buffer.length q.data = q.pos && not q.closed do
      Condition.wait q.cond q.lock
    done;
    let n = min len (Buffer.length q.data - q.pos) in
    Buffer.blit q.data q.pos buf off n;
    q.pos <- q.pos + n;
    (* Drained, start over at the front. A reader that never catches up
       drops the popped prefix once it is most of the buffer, so each byte
       is moved a constant number of times. *)
    let avail = Buffer.length q.data - q.pos in
    if avail = 0 then begin
      Buffer.clear q.data;
      q.pos <- 0
    end
    else if q.pos > avail then begin
      let rest = Buffer.sub q.data q.pos avail in
      Buffer.clear q.data;
      Buffer.add_string q.data rest;
      q.pos <- 0
    end;
    Mutex.unlock q.lock;
    n

  let close q =
    Mutex.lock q.lock;
    q.closed <- true;
    Condition.broadcast q.cond;
    Mutex.unlock q.lock
end

let pipe () =
  let a_to_b = Byte_queue.create () and b_to_a = Byte_queue.create () in
  let endpoint tx rx =
    make
      ~sendv:(fun iov -> Byte_queue.pushv tx iov)
      ~send:(fun buf off len -> Byte_queue.push tx buf off len)
      ~recv:(fun buf off len -> Byte_queue.pop rx buf off len)
      ~close:(fun () ->
        Byte_queue.close tx;
        Byte_queue.close rx)
      ()
  in
  (endpoint a_to_b b_to_a, endpoint b_to_a a_to_b)

let loopback ~peer =
  let out = Buffer.create 1024 in
  (* the peer's last answer, read from [pos] on without copying it *)
  let pending = ref "" and pos = ref 0 in
  let closed = ref false in
  let send buf off len =
    if !closed then raise Closed;
    Buffer.add_subbytes out buf off len
  in
  let sendv iov =
    if !closed then raise Closed;
    Xdr.Iovec.iter
      (fun s ->
        Buffer.add_substring out s.Xdr.Iovec.base s.Xdr.Iovec.off
          s.Xdr.Iovec.len)
      iov
  in
  let recv buf off len =
    if !closed then 0
    else begin
      if !pos = String.length !pending then begin
        if Buffer.length out = 0 then raise Closed;
        let request = Buffer.contents out in
        Buffer.clear out;
        pending := peer request;
        pos := 0
      end;
      let n = min len (String.length !pending - !pos) in
      Bytes.blit_string !pending !pos buf off n;
      pos := !pos + n;
      if !pos = String.length !pending then begin
        pending := "";
        pos := 0
      end;
      n
    end
  in
  make ~sendv ~send ~recv ~close:(fun () -> closed := true) ()

let of_fd fd =
  let send buf off len =
    let rec loop off len =
      if len > 0 then begin
        let n =
          try Unix.write fd buf off len
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            raise Closed
        in
        loop (off + n) (len - n)
      end
    in
    loop off len
  in
  (* No writev in the Unix module: gather by looping [send] per slice.
     Slices on this path are fragment-sized, so the syscall count matches
     the fragment count, not the byte count. *)
  let sendv iov =
    Xdr.Iovec.iter
      (fun s ->
        send (Bytes.unsafe_of_string s.Xdr.Iovec.base) s.Xdr.Iovec.off
          s.Xdr.Iovec.len)
      iov
  in
  let recv buf off len =
    try Unix.read fd buf off len
    with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  make ~sendv ~send ~recv ~close ()

let tcp_connect ~host ~port =
  let addr =
    match Unix.getaddrinfo host (string_of_int port)
            [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | { Unix.ai_addr; _ } :: _ -> ai_addr
    | [] -> raise (Connect_error (Resolution_failed { host; port }))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  of_fd fd
