let src = Logs.Src.create "oncrpc.server" ~doc:"ONC RPC server"

module Log = (val Logs.src_log src : Logs.LOG)

type handler = Xdr.Decode.t -> Xdr.Encode.t -> unit

(* A registered procedure, whether it is one-way and whether it is
   idempotent: dispatch reads all three from one lookup keyed by the
   procedure number alone. *)
type procedure = { handler : handler; mutable oneway : bool; idempotent : bool }

type service = { vers : int; procedures : (int, procedure) Hashtbl.t }

type protocol_error =
  | Unparseable_request of string
  | Unexpected_reply of { xid : int32 }

exception Protocol_error of protocol_error

let () =
  Printexc.register_printer (function
    | Protocol_error (Unparseable_request detail) ->
        Some
          (Printf.sprintf "Oncrpc.Server.Protocol_error(Unparseable_request %S)"
             detail)
    | Protocol_error (Unexpected_reply { xid }) ->
        Some
          (Printf.sprintf
             "Oncrpc.Server.Protocol_error(Unexpected_reply xid=%ld)" xid)
    | _ -> None)

type t = {
  name : string;
  programs : (int, service list ref) Hashtbl.t;
  oneway : (int * int * int, unit) Hashtbl.t;
      (* (prog, vers, proc) marked one-way, registered or not yet; each
         registered procedure carries its own copy of the flag *)
  mutable auth_check : Auth.t -> Message.auth_stat option;
  mutable has_auth_check : bool;
      (* whether a real auth hook is installed: only then are credentials
         materialised, and the pre-parsed fast path must fall back to the
         full software decode, because the device does not parse them *)
  mutable observer : prog:int -> vers:int -> proc:int -> arg_bytes:int -> unit;
  mutable dup_cache : Dup_cache.t option;
  mutable obs : Obs.Recorder.t;
  mutable obs_proc_name : prog:int -> vers:int -> proc:int -> string;
}

let default_proc_name ~prog:_ ~vers:_ ~proc = "proc-" ^ string_of_int proc

let create ?(name = "oncrpc") () =
  {
    name;
    programs = Hashtbl.create 8;
    oneway = Hashtbl.create 8;
    auth_check = (fun _ -> None);
    has_auth_check = false;
    observer = (fun ~prog:_ ~vers:_ ~proc:_ ~arg_bytes:_ -> ());
    dup_cache = None;
    obs = Obs.Recorder.null;
    obs_proc_name = default_proc_name;
  }

let set_obs ?proc_name t obs =
  t.obs <- obs;
  match proc_name with
  | Some f -> t.obs_proc_name <- f
  | None -> ()

let dup_cache_capacity = 4096

let set_dup_cache t =
  t.dup_cache <-
    Some
      (Dup_cache.create ~capacity:dup_cache_capacity
         ~max_bytes:Dup_cache.default_max_bytes)

let dup_hits t =
  match t.dup_cache with None -> 0 | Some c -> Dup_cache.hits c

let null_procedure (_ : Xdr.Decode.t) (_ : Xdr.Encode.t) = ()

let rec find_service vers = function
  | [] -> raise Not_found
  | s :: rest -> if s.vers = vers then s else find_service vers rest

let is_oneway t ~prog ~vers ~proc = Hashtbl.mem t.oneway (prog, vers, proc)

let register ?(idempotent = false) t ~prog ~vers procedures =
  let services =
    match Hashtbl.find_opt t.programs prog with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add t.programs prog l;
        l
  in
  let service =
    match find_service vers !services with
    | s -> s
    | exception Not_found ->
        let s = { vers; procedures = Hashtbl.create 32 } in
        services := s :: !services;
        s
  in
  let add ~idempotent proc handler =
    Hashtbl.replace service.procedures proc
      { handler; oneway = is_oneway t ~prog ~vers ~proc; idempotent }
  in
  if not (Hashtbl.mem service.procedures 0) then
    add ~idempotent:false 0 null_procedure;
  List.iter (fun (proc, h) -> add ~idempotent proc h) procedures

let set_oneway t ~prog ~vers procs =
  List.iter
    (fun proc ->
      Hashtbl.replace t.oneway (prog, vers, proc) ();
      match Hashtbl.find t.programs prog with
      | services -> (
          match
            Hashtbl.find (find_service vers !services).procedures proc
          with
          | p -> p.oneway <- true
          | exception Not_found -> ())
      | exception Not_found -> ())
    procs

let set_auth_check t f =
  t.auth_check <- f;
  t.has_auth_check <- true
let set_observer t f = t.observer <- f

let encode_reply msg =
  let enc = Xdr.Encode.create () in
  Message.encode enc msg;
  Xdr.Encode.to_string enc

let version_range services =
  List.fold_left
    (fun (lo, hi) s -> (min lo s.vers, max hi s.vers))
    (max_int, min_int) services

(* Replies to the calls the per-call path serves are a 24-byte header and
   a few result words, so the encoder starts small. *)
let reply_initial_size = 64

(* The reply encoders of every server, lent one procedure run at a time:
   the connection threads of {!serve_tcp} and servers on other domains
   each take their own. *)
let replies = Xdr.Encode.spare ~initial_size:reply_initial_size

let replace_by_error enc ~xid stat =
  Xdr.Encode.reset enc;
  Message.encode enc (Message.reply_error ~xid:(Int32.of_int xid) stat)

let error_reply ~xid stat =
  encode_reply (Message.reply_error ~xid:(Int32.of_int xid) stat)

(* Run a resolved procedure: the success header and the results go into
   one encoder; a handler that fails has its partial reply discarded for
   an error reply. [""] is the reply of a one-way procedure, which never
   answers — not even on error; failures are logged and otherwise
   dropped, as RFC 5531 §8 prescribes. The reply is copied out of the
   encoder before it is given back. *)
let run_procedure t dec ~xid ~proc p =
  let enc = Xdr.Encode.take replies in
  Message.encode_success_header enc ~xid;
  (match
     p.handler dec enc;
     Xdr.Decode.finish dec
   with
  | () -> ()
  | exception Xdr.Types.Error e ->
      Log.debug (fun m ->
          m "%s: garbage args for proc %d: %s" t.name proc
            (Xdr.Types.error_to_string e));
      replace_by_error enc ~xid Message.Garbage_args
  | exception e ->
      Log.warn (fun m ->
          m "%s: handler for proc %d raised %s" t.name proc
            (Printexc.to_string e));
      replace_by_error enc ~xid Message.System_err);
  let reply = if p.oneway then "" else Xdr.Encode.to_string enc in
  Xdr.Encode.give_back replies enc;
  reply

(* A call's procedure is found before the cache, the span and the auth
   check see the call: the lookups are pure, so finding it first changes
   no reply and no order of effects. A call to no procedure raises
   [Unresolved] with the error it is answered with. *)
exception Unresolved of Message.accept_stat

let find_procedure t ~prog ~vers ~proc =
  match Hashtbl.find t.programs prog with
  | exception Not_found -> raise_notrace (Unresolved Message.Prog_unavail)
  | services -> (
      match find_service vers !services with
      | exception Not_found ->
          let low, high = version_range !services in
          raise_notrace (Unresolved (Message.Prog_mismatch { low; high }))
      | service -> (
          match Hashtbl.find service.procedures proc with
          | exception Not_found ->
              raise_notrace (Unresolved Message.Proc_unavail)
          | p -> p))

(* The two answers of a call whose credentials pass, passed to the
   wrappers below as [answer] with its argument: run the procedure found,
   or reply with the error of a call to none. *)
let run_found t dec ~xid ~prog ~vers ~proc p =
  t.observer ~prog ~vers ~proc ~arg_bytes:(Xdr.Decode.remaining dec);
  run_procedure t dec ~xid ~proc p

let reply_unresolved _ _ ~xid ~prog:_ ~vers:_ ~proc:_ stat =
  error_reply ~xid stat

let dispatch_call t dec ~xid ~prog ~vers ~proc ~cred answer x =
  match t.auth_check cred with
  | Some stat ->
      encode_reply
        (Message.reply_denied ~xid:(Int32.of_int xid) (Message.Auth_error stat))
  | None -> answer t dec ~xid ~prog ~vers ~proc x

let dispatch_spanned t dec ~xid ~prog ~vers ~proc ~cred answer x =
  if Obs.Recorder.enabled t.obs then begin
    let sp =
      Obs.Recorder.span_begin t.obs ~layer:"dispatch"
        (Printf.sprintf "%s xid=%ld"
           (t.obs_proc_name ~prog ~vers ~proc)
           (Int32.of_int xid))
    in
    match dispatch_call t dec ~xid ~prog ~vers ~proc ~cred answer x with
    | reply ->
        Obs.Recorder.span_end t.obs sp;
        reply
    | exception e ->
        Obs.Recorder.span_end t.obs sp;
        raise e
  end
  else dispatch_call t dec ~xid ~prog ~vers ~proc ~cred answer x

(* The at-most-once cache around the dispatch-layer span around
   {!dispatch_call}. [""] is the (absent) reply of a one-way call. *)
let dispatch_cached ident t dec ~xid ~prog ~vers ~proc ~cred answer x =
  match t.dup_cache with
  | None -> dispatch_spanned t dec ~xid ~prog ~vers ~proc ~cred answer x
  | Some cache -> (
      match Dup_cache.lookup cache ~ident ~xid ~prog ~vers ~proc with
      | Some reply ->
          (* Retransmission of an already-executed call: serve the recorded
             reply (or, for a one-way call, suppress re-execution). *)
          Obs.Recorder.incr t.obs "rpc.dup_hit";
          Log.debug (fun m ->
              m "%s: duplicate xid %ld proc %d — replaying cached reply"
                t.name (Int32.of_int xid) proc);
          reply
      | None ->
          let reply =
            dispatch_spanned t dec ~xid ~prog ~vers ~proc ~cred answer x
          in
          Dup_cache.store cache ~ident ~xid ~prog ~vers ~proc reply;
          reply)

(* The common tail of both dispatch paths. An idempotent procedure runs
   again on a retransmission, so its calls bypass the cache: their reply
   is garbage once sent instead of pinned until evicted. *)
let dispatch_resolved ident t dec ~xid ~prog ~vers ~proc ~cred =
  match find_procedure t ~prog ~vers ~proc with
  | p when p.idempotent ->
      dispatch_spanned t dec ~xid ~prog ~vers ~proc ~cred run_found p
  | p -> dispatch_cached ident t dec ~xid ~prog ~vers ~proc ~cred run_found p
  | exception Unresolved stat ->
      dispatch_cached ident t dec ~xid ~prog ~vers ~proc ~cred
        reply_unresolved stat

let unparseable e =
  Protocol_error (Unparseable_request (Xdr.Types.error_to_string e))

(* A request that is not a CALL: the full decoder says whether it is a
   well-formed REPLY or no message at all. *)
let not_a_call request =
  match Message.decode (Xdr.Decode.of_string request) with
  | { Message.xid; _ } -> Protocol_error (Unexpected_reply { xid })
  | exception Xdr.Types.Error e -> unparseable e

(* A decoder of [request] at its arguments. *)
let args_at request off =
  let dec = Xdr.Decode.of_string request in
  Xdr.Decode.skip dec off;
  dec

(* A header field: a short or malformed header is the typed error
   {!Message.decode_call} would raise. *)
let field read dec =
  try read dec with Xdr.Types.Error e -> raise (unparseable e)

(* An opaque_auth, materialised only when an auth hook will look at it. *)
let auth_field t dec =
  if t.has_auth_check then field Auth.decode dec
  else begin
    field Auth.skip dec;
    Auth.none
  end

(* The call header is read into locals, field by field and in
   {!Message.decode_call}'s order, so that no message value is built. *)
let dispatch_raw ident t request =
  let dec = Xdr.Decode.of_string request in
  let xid = field Xdr.Decode.uint dec in
  if field Xdr.Decode.int dec <> Message.msg_call then
    raise (not_a_call request);
  let rpcvers = field Xdr.Decode.uint dec in
  if rpcvers <> Message.rpc_version then
    raise (unparseable (Xdr.Types.Invalid_enum (Int32.of_int rpcvers)));
  let prog = field Xdr.Decode.uint dec in
  let vers = field Xdr.Decode.uint dec in
  let proc = field Xdr.Decode.uint dec in
  let cred = auth_field t dec in
  ignore (auth_field t dec : Auth.t);
  dispatch_resolved ident t dec ~xid ~prog ~vers ~proc ~cred

let dispatch_opt ?(ident = "") t request =
  match dispatch_raw ident t request with "" -> None | reply -> Some reply

(* Fast path for device-parsed calls: the RPC engine already framed the
   record and parsed the header, so the host positions a decoder at the
   body and skips the header decode entirely. Replies are byte-identical
   to {!dispatch_opt} on the same record. When a real auth hook is
   installed we fall back to the software path — the device does not parse
   credentials, and the hook must see them. *)
let dispatch_preparsed ?(ident = "") t ~xid ~prog ~vers ~proc ~body_off request =
  if t.has_auth_check then dispatch_opt ~ident t request
  else begin
    if body_off < 0 || body_off > String.length request then
      raise
        (Protocol_error
           (Unparseable_request
              (Printf.sprintf "preparsed body offset %d out of bounds"
                 body_off)));
    match
      dispatch_resolved ident t (args_at request body_off)
        ~xid:(Int32.to_int xid land 0xffffffff)
        ~prog ~vers ~proc ~cred:Auth.none
    with
    | "" -> None
    | reply -> Some reply
  end

let dispatch ?(ident = "") t request = dispatch_raw ident t request

(* Per-connection identity for transports that carry no explicit tenant:
   each served connection gets a fresh ident, so concurrent clients with
   overlapping xid spaces keep separate at-most-once cache entries. *)
let conn_counter = ref 0
let conn_counter_mutex = Mutex.create ()

let fresh_conn_ident () =
  Mutex.lock conn_counter_mutex;
  incr conn_counter;
  let n = !conn_counter in
  Mutex.unlock conn_counter_mutex;
  Printf.sprintf "conn-%d" n

let serve_transport ?ident t transport =
  let ident =
    match ident with Some i -> i | None -> fresh_conn_ident ()
  in
  let rec loop () =
    match Record.read_opt transport with
    | None -> ()
    | Some request ->
        (match dispatch_opt ~ident t request with
        | None -> ()
        | Some reply -> Record.write transport reply);
        loop ()
  in
  (try loop () with
  | Transport.Closed -> ()
  | e ->
      Log.warn (fun m -> m "%s: connection error: %s" t.name (Printexc.to_string e)));
  transport.Transport.close ()

type tcp_server = {
  fd : Unix.file_descr;
  port : int;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
}

let serve_tcp t ?(backlog = 16) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd backlog;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let server = { fd; port; running = true; accept_thread = None } in
  let accept_loop () =
    while server.running do
      match Unix.accept fd with
      | conn, _ ->
          let transport = Transport.of_fd conn in
          ignore (Thread.create (fun () -> serve_transport t transport) ())
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          server.running <- false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  server.accept_thread <- Some (Thread.create accept_loop ());
  server

let tcp_port s = s.port

let shutdown_tcp s =
  s.running <- false;
  (try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  (* The accept loop exits on the next failed accept. *)
  match s.accept_thread with
  | Some thread -> ( try Thread.join thread with _ -> ())
  | None -> ()
