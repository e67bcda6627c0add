(* Golden tests for the Stanford suite (section 6 workload).

   The fast benchmarks are checked at every optimization level against the
   classic known results (8660 permutations, 4095 Hanoi moves, 92 queens
   solutions, "success 2005" for puzzle); the heavy ones run once at the
   dynamic level as `Slow tests. *)

open Tml_stanford

let check = Alcotest.check
let tstring = Alcotest.string
let tbool = Alcotest.bool

let golden =
  [
    "perm", "8660";
    "towers", "4095";
    "queens", "92";
    "intmm", "15520";
    "mm", "6037";
    "quick", "sorted 0 33696 65505";
    "bubble", "sorted 0 65505";
    "tree", "1000 33666033";
    "fft", "22143";
    "puzzle", "success 2005";
  ]

let expect name = List.assoc name golden

let run_level name level =
  let r = Suite.run name level in
  (match r.Suite.outcome with
  | Tml_vm.Eval.Done _ -> ()
  | o ->
    Alcotest.failf "%s/%s did not finish: %a" name (Suite.level_name level)
      Tml_vm.Eval.pp_outcome o);
  String.trim r.Suite.output, r.Suite.steps

(* fast benchmarks: every level must produce the golden output *)
let all_levels_case name () =
  List.iter
    (fun level ->
      let out, _ = run_level name level in
      check tstring (Printf.sprintf "%s at %s" name (Suite.level_name level)) (expect name) out)
    Suite.levels

(* the speedup claims of section 6, on a fast representative subset:
   static optimization alone is a small effect; dynamic optimization is a
   large one *)
let test_speedup_shape () =
  let names = [ "queens"; "intmm"; "tree" ] in
  List.iter
    (fun name ->
      let _, unopt = run_level name Suite.Unopt in
      let _, static = run_level name Suite.Static in
      let _, dynamic = run_level name Suite.Dynamic in
      let s_static = float_of_int unopt /. float_of_int static in
      let s_dynamic = float_of_int unopt /. float_of_int dynamic in
      check tbool
        (Printf.sprintf "%s: static is a modest effect (%.2fx)" name s_static)
        true (s_static < 1.6);
      check tbool
        (Printf.sprintf "%s: dynamic more than doubles speed (%.2fx)" name s_dynamic)
        true (s_dynamic > 2.0))
    names

(* engines agree on a representative benchmark *)
let test_engines_agree () =
  let m = Suite.run ~engine:`Machine "towers" Suite.Unopt in
  let t = Suite.run ~engine:`Tree "towers" Suite.Unopt in
  check tstring "same output" m.Suite.output t.Suite.output

(* the heavy benchmark, once, dynamically optimized *)
let puzzle_case () =
  let out, _ = run_level "puzzle" Suite.Dynamic in
  check tstring "puzzle" (expect "puzzle") out

let test_code_size_doubles () =
  (* E3: with PTML attached to every function, code size roughly doubles
     (the paper reports 1.2MB vs 600kB), program by program *)
  List.iter
    (fun name ->
      let report = Suite.code_size (Suite.load name Suite.Unopt) in
      let ratio =
        float_of_int (report.Suite.bytecode_bytes + report.Suite.ptml_bytes)
        /. float_of_int report.Suite.bytecode_bytes
      in
      check tbool
        (Printf.sprintf "%s: PTML roughly doubles code size (%.2fx)" name ratio)
        true
        (ratio > 1.5 && ratio < 3.5);
      check tbool (name ^ ": functions counted") true (report.Suite.functions > 10))
    Suite.all_names

let fast_names = [ "perm"; "towers"; "queens"; "intmm"; "mm"; "tree"; "fft" ]
let slow_names = [ "quick"; "bubble" ]

let () =
  Alcotest.run "tml_stanford"
    ([
       ( "golden",
         List.map (fun name -> Alcotest.test_case name `Quick (all_levels_case name)) fast_names
         @ List.map
             (fun name -> Alcotest.test_case name `Slow (all_levels_case name))
             slow_names
         @ [ Alcotest.test_case "puzzle (dynamic only)" `Slow puzzle_case ] );
     ]
    @ [
        ( "claims",
          [
            Alcotest.test_case "speedup shape (E1/E2)" `Quick test_speedup_shape;
            Alcotest.test_case "engines agree" `Quick test_engines_agree;
            Alcotest.test_case "code size (E3)" `Quick test_code_size_doubles;
          ] );
      ])
