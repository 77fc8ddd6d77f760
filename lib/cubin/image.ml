type kernel_info = {
  name : string;
  params : Gpusim.Kernels.param list;
  max_threads_per_block : int;
}

type global_info = { name : string; size : int; init : bytes option }

type t = {
  arch : int * int;
  kernels : kernel_info list;
  globals : global_info list;
  code : bytes;
}

let magic = "CBIN"
let format_version = 1
let flag_compressed = 0x0001

let param_code = function
  | Gpusim.Kernels.P_i32 -> 0
  | Gpusim.Kernels.P_i64 -> 1
  | Gpusim.Kernels.P_f32 -> 2
  | Gpusim.Kernels.P_f64 -> 3
  | Gpusim.Kernels.P_ptr -> 4

let param_of_code = function
  | 0 -> Some Gpusim.Kernels.P_i32
  | 1 -> Some Gpusim.Kernels.P_i64
  | 2 -> Some Gpusim.Kernels.P_f32
  | 3 -> Some Gpusim.Kernels.P_f64
  | 4 -> Some Gpusim.Kernels.P_ptr
  | _ -> None

(* --- little-endian writer --- *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let w_u16 buf v =
  w_u8 buf v;
  w_u8 buf (v lsr 8)

let w_u32 buf v =
  w_u16 buf (v land 0xffff);
  w_u16 buf ((v lsr 16) land 0xffff)

let w_str buf s =
  if String.length s > 0xffff then invalid_arg "Cubin.Image: string too long";
  w_u16 buf (String.length s);
  Buffer.add_string buf s

(* --- little-endian reader --- *)

exception Malformed of string

let r_u8 s pos =
  if !pos >= String.length s then raise (Malformed "truncated");
  let v = Char.code s.[!pos] in
  incr pos;
  v

let r_u16 s pos =
  let lo = r_u8 s pos in
  let hi = r_u8 s pos in
  lo lor (hi lsl 8)

let r_u32 s pos =
  let lo = r_u16 s pos in
  let hi = r_u16 s pos in
  lo lor (hi lsl 16)

let r_bytes s pos n =
  if n < 0 || !pos + n > String.length s then raise (Malformed "truncated");
  let b = String.sub s !pos n in
  pos := !pos + n;
  b

let r_str s pos =
  let n = r_u16 s pos in
  r_bytes s pos n

let build_payload t =
  let buf = Buffer.create 1024 in
  let major, minor = t.arch in
  w_u16 buf major;
  w_u16 buf minor;
  w_u32 buf (List.length t.kernels);
  List.iter
    (fun (k : kernel_info) ->
      w_str buf k.name;
      w_u8 buf (List.length k.params);
      List.iter (fun p -> w_u8 buf (param_code p)) k.params;
      w_u32 buf k.max_threads_per_block)
    t.kernels;
  w_u32 buf (List.length t.globals);
  List.iter
    (fun (g : global_info) ->
      w_str buf g.name;
      w_u32 buf g.size;
      match g.init with
      | None -> w_u8 buf 0
      | Some init ->
          w_u8 buf 1;
          w_u32 buf (Bytes.length init);
          Buffer.add_bytes buf init)
    t.globals;
  w_u32 buf (Bytes.length t.code);
  Buffer.add_bytes buf t.code;
  Buffer.contents buf

let build ?(compress = true) t =
  let payload = build_payload t in
  let payload, flags =
    if compress then (Lzss.compress payload, flag_compressed) else (payload, 0)
  in
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  w_u16 buf format_version;
  w_u16 buf flags;
  w_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let parse_payload payload =
  let pos = ref 0 in
  let major = r_u16 payload pos in
  let minor = r_u16 payload pos in
  let kernel_count = r_u32 payload pos in
  let kernels =
    List.init kernel_count (fun _ ->
        let name = r_str payload pos in
        let param_count = r_u8 payload pos in
        let params =
          List.init param_count (fun _ ->
              match param_of_code (r_u8 payload pos) with
              | Some p -> p
              | None -> raise (Malformed "unknown parameter type"))
        in
        let max_threads_per_block = r_u32 payload pos in
        { name; params; max_threads_per_block })
  in
  let global_count = r_u32 payload pos in
  let globals =
    List.init global_count (fun _ ->
        let name = r_str payload pos in
        let size = r_u32 payload pos in
        let init =
          match r_u8 payload pos with
          | 0 -> None
          | _ ->
              let len = r_u32 payload pos in
              Some (Bytes.of_string (r_bytes payload pos len))
        in
        { name; size; init })
  in
  let code_len = r_u32 payload pos in
  let code = Bytes.of_string (r_bytes payload pos code_len) in
  if !pos <> String.length payload then raise (Malformed "trailing bytes");
  { arch = (major, minor); kernels; globals; code }

let parse s =
  try
    let pos = ref 0 in
    let m = r_bytes s pos 4 in
    if m <> magic then Error "bad magic"
    else begin
      let version = r_u16 s pos in
      if version <> format_version then
        Error (Printf.sprintf "unsupported version %d" version)
      else begin
        let flags = r_u16 s pos in
        let len = r_u32 s pos in
        let payload = r_bytes s pos len in
        if !pos <> String.length s then Error "trailing bytes after payload"
        else begin
          let payload =
            if flags land flag_compressed <> 0 then
              match Lzss.decompress payload with
              | Ok p -> p
              | Error e -> raise (Malformed ("decompression failed: " ^ e))
            else payload
          in
          Ok (parse_payload payload)
        end
      end
    end
  with Malformed msg -> Error msg

let is_compressed s =
  String.length s >= 8
  && String.sub s 0 4 = magic
  && Char.code s.[6] land flag_compressed <> 0

let of_registry ?(arch = (8, 0)) names =
  let kernels =
    List.map
      (fun name ->
        match Gpusim.Kernels.find name with
        | Some k ->
            { name; params = k.Gpusim.Kernels.params;
              max_threads_per_block = 1024 }
        | None -> raise Not_found)
      names
  in
  (* A synthetic "SASS" section: repetitive enough to exercise
     compression the way real device code does. *)
  let code =
    Bytes.of_string
      (String.concat ""
         (List.concat_map
            (fun (k : kernel_info) ->
              List.init 32 (fun i -> Printf.sprintf "%s:%04x;" k.name i))
            kernels))
  in
  { arch; kernels; globals = []; code }

let find_kernel t name =
  List.find_opt (fun (k : kernel_info) -> k.name = name) t.kernels

let align offset size = (offset + size - 1) / size * size

let param_buffer_size info =
  List.fold_left
    (fun offset p ->
      let size = Gpusim.Kernels.param_size p in
      align offset size + size)
    0 info.params

(* Lay out argument [i] and the ones after it from [offset], one per
   parameter of [params]; the index of the first argument whose type does
   not match its parameter, or -1. *)
let rec pack_from buf args i offset params =
  match params with
  | [] -> -1
  | p :: params ->
      let size = Gpusim.Kernels.param_size p in
      let offset = align offset size in
      let matches =
        match (p, args.(i)) with
        | Gpusim.Kernels.P_i32, Gpusim.Kernels.I32 v ->
            Bytes.set_int32_le buf offset v;
            true
        | Gpusim.Kernels.P_f32, Gpusim.Kernels.F32 v ->
            Bytes.set_int32_le buf offset (Int32.bits_of_float v);
            true
        | Gpusim.Kernels.P_i64, Gpusim.Kernels.I64 v ->
            Bytes.set_int64_le buf offset v;
            true
        | Gpusim.Kernels.P_f64, Gpusim.Kernels.F64 v ->
            Bytes.set_int64_le buf offset (Int64.bits_of_float v);
            true
        | Gpusim.Kernels.P_ptr, Gpusim.Kernels.Ptr v ->
            Bytes.set_int64_le buf offset (Int64.of_int v);
            true
        | _ -> false
      in
      if matches then pack_from buf args (i + 1) (offset + size) params else i

let pack_args info args =
  if Array.length args <> List.length info.params then
    Error
      (Printf.sprintf "%s: expected %d args, got %d" info.name
         (List.length info.params) (Array.length args))
  else begin
    let buf = Bytes.make (param_buffer_size info) '\000' in
    match pack_from buf args 0 0 info.params with
    | -1 -> Ok buf
    | i -> Error (Printf.sprintf "%s: arg %d type mismatch" info.name i)
  end

(* Read argument [i] and the ones after it into [args] from [offset], one
   per parameter of [params]. *)
let rec unpack_from buf args i offset params =
  match params with
  | [] -> ()
  | p :: params ->
      let size = Gpusim.Kernels.param_size p in
      let offset = align offset size in
      args.(i) <-
        (match p with
        | Gpusim.Kernels.P_i32 ->
            Gpusim.Kernels.I32 (Bytes.get_int32_le buf offset)
        | Gpusim.Kernels.P_f32 ->
            Gpusim.Kernels.F32
              (Int32.float_of_bits (Bytes.get_int32_le buf offset))
        | Gpusim.Kernels.P_i64 ->
            Gpusim.Kernels.I64 (Bytes.get_int64_le buf offset)
        | Gpusim.Kernels.P_f64 ->
            Gpusim.Kernels.F64
              (Int64.float_of_bits (Bytes.get_int64_le buf offset))
        | Gpusim.Kernels.P_ptr ->
            Gpusim.Kernels.Ptr (Int64.to_int (Bytes.get_int64_le buf offset)));
      unpack_from buf args (i + 1) (offset + size) params

let unpack_args info buf =
  let expected = param_buffer_size info in
  if Bytes.length buf <> expected then
    Error
      (Printf.sprintf "%s: parameter buffer is %d bytes, expected %d" info.name
         (Bytes.length buf) expected)
  else begin
    let args =
      Array.make (List.length info.params) (Gpusim.Kernels.I32 0l)
    in
    unpack_from buf args 0 0 info.params;
    Ok args
  end
