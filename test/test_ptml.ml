(* Tests for the PTML codec (section 4.1) and the low-level binary codec. *)

open Tml_core
module Codec = Tml_store.Codec
module Ptml = Tml_store.Ptml

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)
(* ------------------------------------------------------------------ *)

let test_varint () =
  let values = [ 0; 1; 127; 128; 300; 65_535; 1 lsl 40; max_int ] in
  let w = Codec.W.create () in
  List.iter (Codec.W.varint w) values;
  let r = Codec.R.of_string (Codec.W.contents w) in
  List.iter (fun v -> check tint (string_of_int v) v (Codec.R.varint r)) values;
  check tbool "at end" true (Codec.R.at_end r)

let test_svarint () =
  let values = [ 0; 1; -1; 63; 64; -64; -65; 12345; -12345; max_int; min_int ] in
  let w = Codec.W.create () in
  List.iter (Codec.W.svarint w) values;
  let r = Codec.R.of_string (Codec.W.contents w) in
  List.iter (fun v -> check tint (string_of_int v) v (Codec.R.svarint r)) values

let test_float64 () =
  let values = [ 0.0; -0.0; 1.5; -3.25; Float.max_float; Float.min_float; infinity; Float.nan ] in
  let w = Codec.W.create () in
  List.iter (Codec.W.float64 w) values;
  let r = Codec.R.of_string (Codec.W.contents w) in
  List.iter
    (fun v ->
      let got = Codec.R.float64 r in
      check tbool (string_of_float v) true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float got)))
    values

let test_strings () =
  let w = Codec.W.create () in
  Codec.W.str w "";
  Codec.W.str w "hello";
  Codec.W.str w (String.make 1000 'x');
  let r = Codec.R.of_string (Codec.W.contents w) in
  check tstring "empty" "" (Codec.R.str r);
  check tstring "hello" "hello" (Codec.R.str r);
  check tint "long" 1000 (String.length (Codec.R.str r))

let test_truncated () =
  let r = Codec.R.of_string "\x80" in
  (* varint continuation byte with no successor *)
  match Codec.R.varint r with
  | exception Codec.R.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

(* ------------------------------------------------------------------ *)
(* PTML                                                                 *)
(* ------------------------------------------------------------------ *)

let roundtrip_value v =
  let bytes = Ptml.encode_value v in
  let v' = Ptml.decode_value bytes in
  if not (Term.equal_value v v') then
    Alcotest.failf "PTML roundtrip not structural:@.%s@.vs@.%s" (Sexp.print_value v)
      (Sexp.print_value v')

let test_roundtrip_samples () =
  List.iter
    (fun s -> roundtrip_value (Sexp.parse_value s))
    [
      "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))";
      "proc(a b ce! k!) (== a 1 'q' cont() (k! \"left\") cont() (k! \"right\") cont() (k! \
       nil))";
      "proc(ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! 3) cont(i) (cc! i)))";
      "proc(f x ce! cc!) (f 3.14 -42 <oid 77> x ce! cc!)";
    ]

let test_roundtrip_generated () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 300 do
    roundtrip_value (Gen.proc2 rng ~size:20)
  done

let test_stamps_preserved () =
  let v = Sexp.parse_value "proc(x ce! cc!) (+ x x ce! cc!)" in
  let v' = Ptml.decode_value (Ptml.encode_value v) in
  (* structural equality includes stamps *)
  check tbool "stamps preserved" true (Term.equal_value v v')

(* PTML is compared and digested as bytes (the specialization cache keys
   on a digest of a function's stored PTML), so decoding and encoding again
   must give back the very bytes it came from *)
let test_reencode_identical () =
  let rng = Random.State.make [| 0x9a5 |] in
  for i = 0 to 30 do
    let bytes = Ptml.encode_value (Gen.proc2 rng ~size:(10 + (2 * i))) in
    check tstring "re-encoding is byte-identical" bytes
      (Ptml.encode_value (Ptml.decode_value bytes))
  done

let test_string_interning () =
  (* the same long identifier name appearing many times is pooled: size
     grows sublinearly *)
  let mk n =
    let params = List.init n (fun _ -> Ident.fresh "a_rather_long_identifier_name") in
    let cc = Ident.fresh ~sort:Ident.Cont "cc" in
    Term.abs (params @ [ cc ]) (Term.app (Term.var cc) (List.map Term.var params))
  in
  let s1 = Ptml.encoded_size_value (mk 2) in
  let s10 = Ptml.encoded_size_value (mk 20) in
  check tbool "sublinear growth (interned names)" true (s10 < s1 * 8)

let test_decode_errors () =
  (match Ptml.decode_value "garbage" with
  | exception Ptml.Decode_error _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let good = Ptml.encode_value (Sexp.parse_value "proc(x ce! cc!) (cc! x)") in
  let truncated = String.sub good 0 (String.length good - 2) in
  (match Ptml.decode_value truncated with
  | exception Ptml.Decode_error _ -> ()
  | _ -> Alcotest.fail "truncated accepted");
  (* flipping a tag byte deep inside should error or decode to a different
     term, never crash *)
  let mutated = Bytes.of_string good in
  Bytes.set mutated (String.length good - 1) '\xff';
  match Ptml.decode_value (Bytes.to_string mutated) with
  | exception Ptml.Decode_error _ -> ()
  | _ -> ()

let test_app_roundtrip () =
  let a = Sexp.parse_app "(+ 1 2 ce! cont(t) (cc! t))" in
  let a' = Ptml.decode_app (Ptml.encode_app a) in
  check tbool "app roundtrip" true (Term.equal_app a a')

let test_compactness () =
  (* PTML should be materially smaller than the printed text *)
  let v = Sexp.parse_value (Tml_core.Sexp.print_value (Gen.proc2 (Random.State.make [| 3 |]) ~size:60)) in
  let text = String.length (Sexp.print_value v) in
  let binary = Ptml.encoded_size_value v in
  check tbool
    (Printf.sprintf "binary (%d) < text (%d)" binary text)
    true (binary < text)

let () =
  Primitives.install ();
  Alcotest.run "tml_ptml"
    [
      ( "codec",
        [
          Alcotest.test_case "varint" `Quick test_varint;
          Alcotest.test_case "signed varint" `Quick test_svarint;
          Alcotest.test_case "float64" `Quick test_float64;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "truncation" `Quick test_truncated;
        ] );
      ( "ptml",
        [
          Alcotest.test_case "sample round trips" `Quick test_roundtrip_samples;
          Alcotest.test_case "generated round trips" `Quick test_roundtrip_generated;
          Alcotest.test_case "stamps preserved" `Quick test_stamps_preserved;
          Alcotest.test_case "names interned" `Quick test_string_interning;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "application payload" `Quick test_app_roundtrip;
          Alcotest.test_case "compact vs text" `Quick test_compactness;
          Alcotest.test_case "re-encoding is byte-identical" `Quick test_reencode_identical;
        ] );
    ]
