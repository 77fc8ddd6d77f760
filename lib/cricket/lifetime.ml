exception Use_after_free
exception Double_free

let () =
  Printexc.register_printer (function
    | Use_after_free -> Some "Cricket.Lifetime.Use_after_free"
    | Double_free -> Some "Cricket.Lifetime.Double_free"
    | _ -> None)

type t = {
  client : Client.t;
  device_ptr : int64;
  length : int;
  mutable live : bool;
}

let alloc client n =
  if n <= 0 then invalid_arg "Lifetime.alloc: size must be positive";
  { client; device_ptr = Client.malloc client n; length = n; live = true }

let ensure_live t = if not t.live then raise Use_after_free

let ptr t =
  ensure_live t;
  t.device_ptr

let size t = t.length
let is_live t = t.live

let free t =
  if not t.live then raise Double_free;
  t.live <- false;
  Client.free t.client t.device_ptr

let check_bounds t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.length then
    invalid_arg "Lifetime: access outside buffer"

let upload_at t ~offset data =
  ensure_live t;
  check_bounds t ~offset ~len:(Bytes.length data);
  Client.memcpy_h2d t.client
    ~dst:(Int64.add t.device_ptr (Int64.of_int offset))
    data

let upload t data = upload_at t ~offset:0 data

let download_part t ~offset ~len =
  ensure_live t;
  check_bounds t ~offset ~len;
  Client.memcpy_d2h t.client
    ~src:(Int64.add t.device_ptr (Int64.of_int offset))
    ~len

let same_client t stream op =
  if Stream.client stream != t.client then
    invalid_arg (op ^ ": stream belongs to a different client")

(* Stream variants check liveness twice: at enqueue (fail fast) and again
   inside the deferred command, so freeing a buffer between enqueue and
   flush still raises Use_after_free instead of touching freed memory. *)
let upload_async t stream data =
  ensure_live t;
  same_client t stream "Lifetime.upload_async";
  check_bounds t ~offset:0 ~len:(Bytes.length data);
  Stream.submit stream (fun () ->
      ensure_live t;
      Client.memcpy_h2d_async t.client ~dst:t.device_ptr
        ~stream:(Stream.handle stream) data)

let download ?stream t =
  match stream with
  | None -> download_part t ~offset:0 ~len:t.length
  | Some s ->
      ensure_live t;
      same_client t s "Lifetime.download";
      Stream.download s ~src:t.device_ptr ~len:t.length

let fill t value =
  ensure_live t;
  Client.memset t.client ~ptr:t.device_ptr ~value ~len:t.length

let with_buffer client n f =
  let t = alloc client n in
  Fun.protect ~finally:(fun () -> if t.live then free t) (fun () -> f t)
