(* Unit and property tests for the XDR (RFC 4506) codec. *)

module E = Xdr.Encode
module D = Xdr.Decode
module T = Xdr.Types

let check = Alcotest.check
let hex s = String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let encode f =
  let enc = E.create () in
  f enc;
  E.to_string enc

let roundtrip enc_f dec_f v =
  let s = encode (fun e -> enc_f e v) in
  let dec = D.of_string s in
  let v' = dec_f dec in
  D.finish dec;
  v'

let expect_error expected f =
  match f () with
  | _ -> Alcotest.failf "expected Xdr error %s" (T.error_to_string expected)
  | exception T.Error e ->
      check Alcotest.string "error" (T.error_to_string expected)
        (T.error_to_string e)

(* --- wire-format golden vectors (values from RFC 4506 examples) --- *)

let test_int_wire () =
  check Alcotest.string "int 1" "00000001" (hex (encode (fun e -> E.int e 1)));
  check Alcotest.string "int -1" "ffffffff" (hex (encode (fun e -> E.int e (-1))));
  check Alcotest.string "int min" "80000000"
    (hex (encode (fun e -> E.int e (-0x80000000))));
  check Alcotest.string "hyper" "00000000deadbeef"
    (hex (encode (fun e -> E.int64 e 0xdeadbeefL)))

let test_string_wire () =
  (* "sillyprog" from RFC 4506 §7: 9 chars + 3 pad bytes. *)
  check Alcotest.string "string"
    "0000000973696c6c7970726f67000000"
    (hex (encode (fun e -> E.string e "sillyprog")))

let test_bool_wire () =
  check Alcotest.string "true" "00000001" (hex (encode (fun e -> E.bool e true)));
  check Alcotest.string "false" "00000000" (hex (encode (fun e -> E.bool e false)))

let test_float_wire () =
  check Alcotest.string "1.0f" "3f800000"
    (hex (encode (fun e -> E.float32 e 1.0)));
  check Alcotest.string "1.0d" "3ff0000000000000"
    (hex (encode (fun e -> E.float64 e 1.0)))

let test_opaque_padding () =
  let s = encode (fun e -> E.opaque e (Bytes.of_string "ab")) in
  check Alcotest.int "length" 8 (String.length s);
  check Alcotest.string "wire" "0000000261620000" (hex s)

(* --- roundtrips --- *)

let test_roundtrip_basic () =
  check Alcotest.int "int" (-123456) (roundtrip E.int D.int (-123456));
  check Alcotest.int "uint" 0xfffffffe (roundtrip E.uint D.uint 0xfffffffe);
  check Alcotest.int32 "int32" (-1l) (roundtrip E.int32 D.int32 (-1l));
  check Alcotest.int64 "int64" Int64.min_int
    (roundtrip E.int64 D.int64 Int64.min_int);
  check Alcotest.bool "bool" true (roundtrip E.bool D.bool true);
  check (Alcotest.float 0.0) "f64" 3.14159 (roundtrip E.float64 D.float64 3.14159);
  check Alcotest.string "string" "hello" (roundtrip E.string D.string "hello");
  check Alcotest.string "empty string" "" (roundtrip E.string D.string "")

let test_roundtrip_composites () =
  let enc_arr e v = E.array e E.int v and dec_arr d = D.array d D.int in
  check (Alcotest.array Alcotest.int) "array" [| 1; 2; 3 |]
    (roundtrip enc_arr dec_arr [| 1; 2; 3 |]);
  let enc_opt e v = E.option e E.string v
  and dec_opt d = D.option d D.string in
  check (Alcotest.option Alcotest.string) "some" (Some "x")
    (roundtrip enc_opt dec_opt (Some "x"));
  check (Alcotest.option Alcotest.string) "none" None
    (roundtrip enc_opt dec_opt None);
  let enc_l e v = E.list e E.int64 v and dec_l d = D.list d D.int64 in
  check (Alcotest.list Alcotest.int64) "list" [ 1L; 2L ]
    (roundtrip enc_l dec_l [ 1L; 2L ])

let test_fixed_array () =
  let s = encode (fun e -> E.array_fixed e E.int [| 7; 8 |]) in
  check Alcotest.int "no count prefix" 8 (String.length s);
  let dec = D.of_string s in
  let a = D.array_fixed dec D.int 2 in
  D.finish dec;
  check (Alcotest.array Alcotest.int) "fixed" [| 7; 8 |] a

(* --- error paths --- *)

let test_truncated () =
  expect_error (T.Truncated { wanted = 4; available = 2 }) (fun () ->
      D.int (D.of_string "ab"))

let test_string_max () =
  expect_error (T.Size_exceeded { limit = 2; requested = 5 }) (fun () ->
      E.string ~max:2 (E.create ()) "hello");
  let s = encode (fun e -> E.string e "hello") in
  expect_error (T.Size_exceeded { limit = 2; requested = 5 }) (fun () ->
      D.string ~max:2 (D.of_string s))

let test_adversarial_length () =
  (* A declared length of 2^31-ish must fail before allocating. *)
  let s = encode (fun e -> E.uint32 e 0x7ffffff0l) in
  expect_error
    (T.Truncated { wanted = 0x7ffffff0; available = 0 })
    (fun () -> D.opaque (D.of_string s))

let test_invalid_bool () =
  let s = encode (fun e -> E.int e 2) in
  expect_error (T.Invalid_bool 2l) (fun () -> D.bool (D.of_string s))

let test_nonzero_padding () =
  (* length 1, data 'a', then non-zero pad *)
  let s = "\x00\x00\x00\x01a\x01\x00\x00" in
  expect_error T.Invalid_padding (fun () -> D.string (D.of_string s))

let test_trailing () =
  let s = encode (fun e -> E.int e 1; E.int e 2) in
  let dec = D.of_string s in
  let _ = D.int dec in
  expect_error (T.Trailing_bytes 4) (fun () -> D.finish dec)

let test_int_range () =
  expect_error
    (T.Size_exceeded { limit = 0x7fffffff; requested = 0x80000000 })
    (fun () -> E.int (E.create ()) 0x80000000);
  expect_error (T.Negative_size (-1)) (fun () -> E.uint (E.create ()) (-1))

let test_enum_check () =
  let s = encode (fun e -> E.enum e 5) in
  check Alcotest.int "valid enum" 5
    (D.enum (D.of_string s) ~check:(fun v -> v = 5));
  expect_error (T.Invalid_enum 5l) (fun () ->
      D.enum (D.of_string s) ~check:(fun v -> v = 4))

let test_alignment_invariant () =
  (* every encoder output is 4-aligned *)
  List.iter
    (fun f -> check Alcotest.int "aligned" 0 (String.length (encode f) mod 4))
    [
      (fun e -> E.string e "a");
      (fun e -> E.string e "abc");
      (fun e -> E.opaque e (Bytes.of_string "abcde"));
      (fun e -> E.opaque_fixed e (Bytes.of_string "xyz"));
    ]

let test_opaque_sub () =
  let b = Bytes.of_string "0123456789" in
  let s = encode (fun e -> E.opaque_sub e b 2 5) in
  let dec = D.of_string s in
  check Alcotest.string "sub" "23456" (Bytes.to_string (D.opaque dec));
  D.finish dec

(* --- qcheck properties --- *)

let gen_payload = QCheck.string_of_size (QCheck.Gen.int_range 0 2048)

let prop_string_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xdr string roundtrip" gen_payload
    (fun s -> roundtrip E.string D.string s = s)

let prop_opaque_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xdr opaque roundtrip" gen_payload
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (roundtrip (fun e v -> E.opaque e v) D.opaque b) b)

let prop_int32_roundtrip =
  QCheck.Test.make ~count:500 ~name:"xdr int32 roundtrip" QCheck.int32
    (fun v -> roundtrip E.int32 D.int32 v = v)

let prop_int64_roundtrip =
  QCheck.Test.make ~count:500 ~name:"xdr int64 roundtrip" QCheck.int64
    (fun v -> roundtrip E.int64 D.int64 v = v)

let prop_float64_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xdr float64 roundtrip" QCheck.float
    (fun v ->
      let v' = roundtrip E.float64 D.float64 v in
      v' = v || (Float.is_nan v && Float.is_nan v'))

let prop_int_list_roundtrip =
  QCheck.Test.make ~count:200 ~name:"xdr int list roundtrip"
    QCheck.(list int32)
    (fun l ->
      roundtrip (fun e v -> E.list e E.int32 v) (fun d -> D.list d D.int32) l
      = l)

(* --- scatter-gather encoder and no-copy decode views --- *)

let test_encode_large_opaque_zero_copy () =
  let n = E.zero_copy_threshold in
  let payload = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
  let enc = E.create () in
  E.int enc 7;
  E.opaque enc payload;
  E.int enc 9;
  let iov = E.to_iovec enc in
  check Alcotest.bool "payload travels as an aliased slice" true
    (List.exists
       (fun s ->
         s.Xdr.Iovec.base == Bytes.unsafe_to_string payload
         && s.Xdr.Iovec.len = n)
       iov);
  (* flattening the iovec must reproduce the classic contiguous wire
     format, built here independently by hand *)
  let b = Buffer.create (n + 16) in
  Buffer.add_int32_be b 7l;
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_bytes b payload;
  Buffer.add_int32_be b 9l;
  check Alcotest.string "wire identical" (Buffer.contents b)
    (Xdr.Iovec.concat iov)

let test_encode_small_opaque_copied () =
  (* below the threshold an iovec entry costs more than a copy: the bytes
     must be folded into the surrounding word stream, one slice total *)
  let payload = Bytes.make (E.zero_copy_threshold - 4) 'q' in
  let enc = E.create () in
  E.int enc 1;
  E.opaque enc payload;
  E.int enc 2;
  match E.to_iovec enc with
  | [ _ ] -> ()
  | iov -> Alcotest.failf "expected 1 slice, got %d" (List.length iov)

let test_decode_opaque_slice_no_copy () =
  let wire = encode (fun e -> E.string e "helloworld"; E.int e 5) in
  let dec = D.of_string wire in
  let s = D.opaque_slice dec in
  check Alcotest.bool "view aliases the record buffer" true
    (s.Xdr.Iovec.base == wire);
  check Alcotest.int "len" 10 s.Xdr.Iovec.len;
  check Alcotest.string "contents" "helloworld" (Xdr.Iovec.slice_to_string s);
  check Alcotest.int "padding consumed" 5 (D.int dec);
  D.finish dec

let prop_sliced_encode_identity =
  (* for payloads straddling the zero-copy threshold, the scatter-gather
     encoder's flattened output must equal the RFC 4506 contiguous
     encoding, built independently by hand *)
  QCheck.Test.make ~count:200 ~name:"sliced encoder output is wire-identical"
    QCheck.(string_of_size (Gen.int_range 0 4096))
    (fun payload ->
      let enc = E.create () in
      E.int enc 1;
      E.opaque enc (Bytes.of_string payload);
      E.string enc "tail";
      let b = Buffer.create 64 in
      Buffer.add_int32_be b 1l;
      Buffer.add_int32_be b (Int32.of_int (String.length payload));
      Buffer.add_string b payload;
      for _ = 1 to (4 - (String.length payload mod 4)) mod 4 do
        Buffer.add_char b '\000'
      done;
      Buffer.add_int32_be b 4l;
      Buffer.add_string b "tail";
      Xdr.Iovec.concat (E.to_iovec enc) = Buffer.contents b)

let prop_opaque_slice_roundtrip =
  QCheck.Test.make ~count:200 ~name:"opaque_slice decodes what opaque encoded"
    QCheck.(string_of_size (Gen.int_range 0 2048))
    (fun payload ->
      let wire = encode (fun e -> E.opaque e (Bytes.of_string payload)) in
      let dec = D.of_string wire in
      let s = D.opaque_slice dec in
      D.finish dec;
      Xdr.Iovec.slice_to_string s = payload)

let prop_concat_independent =
  (* encoding a followed by b equals encode a ^ encode b *)
  QCheck.Test.make ~count:200 ~name:"xdr encoding is concatenative"
    QCheck.(pair gen_payload gen_payload)
    (fun (a, b) ->
      encode (fun e -> E.string e a; E.string e b)
      = encode (fun e -> E.string e a) ^ encode (fun e -> E.string e b))

(* Opaques written by [opaque_fill] — several per message, small and large,
   between other fields — lay out exactly as [opaque] writes the same
   bytes, and a message still waiting for a fill refuses [to_iovec]. *)
let prop_opaque_fill_identity =
  QCheck.Test.make ~count:200 ~name:"opaque_fill lays out what opaque encodes"
    QCheck.(small_list (string_of_size (Gen.int_range 0 3000)))
    (fun payloads ->
      let encoded opaque =
        encode (fun e ->
            List.iteri
              (fun i p ->
                E.int e i;
                opaque e p)
              payloads;
            E.int e (-1))
      in
      let deferred = E.create () in
      E.opaque_fill deferred E.zero_copy_threshold (fun b off ->
          Bytes.fill b off E.zero_copy_threshold 'd');
      (match E.to_iovec deferred with
      | _ -> QCheck.Test.fail_report "to_iovec took an unfilled opaque"
      | exception Invalid_argument _ -> ());
      encoded (fun e p ->
          E.opaque_fill e (String.length p) (fun b off ->
              Bytes.blit_string p 0 b off (String.length p)))
      = encoded (fun e p -> E.opaque e (Bytes.of_string p)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_string_roundtrip; prop_opaque_roundtrip; prop_int32_roundtrip;
      prop_int64_roundtrip; prop_float64_roundtrip; prop_int_list_roundtrip;
      prop_sliced_encode_identity; prop_opaque_slice_roundtrip;
      prop_concat_independent;
    ]

let fill_tests = List.map QCheck_alcotest.to_alcotest [ prop_opaque_fill_identity ]

let suite =
  [
    Alcotest.test_case "int wire format" `Quick test_int_wire;
    Alcotest.test_case "string wire format" `Quick test_string_wire;
    Alcotest.test_case "bool wire format" `Quick test_bool_wire;
    Alcotest.test_case "float wire format" `Quick test_float_wire;
    Alcotest.test_case "opaque padding" `Quick test_opaque_padding;
    Alcotest.test_case "roundtrip basics" `Quick test_roundtrip_basic;
    Alcotest.test_case "roundtrip composites" `Quick test_roundtrip_composites;
    Alcotest.test_case "fixed arrays" `Quick test_fixed_array;
    Alcotest.test_case "truncated input" `Quick test_truncated;
    Alcotest.test_case "string max bound" `Quick test_string_max;
    Alcotest.test_case "adversarial length" `Quick test_adversarial_length;
    Alcotest.test_case "invalid bool" `Quick test_invalid_bool;
    Alcotest.test_case "non-zero padding" `Quick test_nonzero_padding;
    Alcotest.test_case "trailing bytes" `Quick test_trailing;
    Alcotest.test_case "int range checks" `Quick test_int_range;
    Alcotest.test_case "enum check" `Quick test_enum_check;
    Alcotest.test_case "alignment invariant" `Quick test_alignment_invariant;
    Alcotest.test_case "opaque_sub" `Quick test_opaque_sub;
    Alcotest.test_case "large opaque is zero-copy" `Quick
      test_encode_large_opaque_zero_copy;
    Alcotest.test_case "small opaque is folded" `Quick
      test_encode_small_opaque_copied;
    Alcotest.test_case "opaque_slice is a no-copy view" `Quick
      test_decode_opaque_slice_no_copy;
  ]
  @ qcheck_tests @ fill_tests
