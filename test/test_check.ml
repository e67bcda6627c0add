(* Tests for the translation-validation / differential-fuzzing subsystem
   (lib/check): bounded qcheck differential suites with fixed seeds, the
   object-codec round-trip oracle over hand-built store objects, and the
   deterministic replay of every minimized reproducer in test/corpus/.

   The long campaigns live behind `dune build @fuzz`; these suites are the
   always-on slice of the same oracles. *)

open Tml_core
open Tml_vm
open Tml_check

let () = Tml_query.Qprims.install ()

(* no rule the battery exercises may fire anonymously *)
let () = Rewrite.strict_names := true

(* every optimizing engine runs with the pass-level validation hook on *)
let engines = Oracle.engines ~validate:true

(* ------------------------------------------------------------------ *)
(* qcheck differential suites                                          *)
(* ------------------------------------------------------------------ *)

(* Cases derive from an integer seed through Tgen's own deterministic
   generator, so a qcheck counterexample is reproducible from one number
   (`tmlfuzz run --seed N --count 1`). *)

let diff_case_gen = QCheck2.Gen.(map Tgen.case_of_seed (int_bound 100_000))

let print_diff_case (c : Tgen.case) =
  Printf.sprintf "seed=%d a=%d b=%d\n%s" c.Tgen.seed c.Tgen.a c.Tgen.b
    (Sexp.print_value c.Tgen.proc)

let query_case_gen = QCheck2.Gen.(map Tgen.query_case_of_seed (int_bound 100_000))

let print_query_case (c : Tgen.query_case) =
  Printf.sprintf "seed=%d rows=%d\n%s" c.Tgen.qseed
    (List.length c.Tgen.rows)
    (Sexp.print_value c.Tgen.qproc)

let verdict_ok = function
  | Oracle.Agree _ -> true
  | Oracle.Disagree _ as v ->
    QCheck2.Test.fail_reportf "%a" Oracle.pp_verdict v

let prop_engines_agree =
  QCheck2.Test.make ~name:"all engines agree on generated programs" ~count:120
    ~print:print_diff_case diff_case_gen (fun c ->
      verdict_ok (Oracle.check_case ~engines c))

let prop_query_engines_agree =
  QCheck2.Test.make ~name:"all engines agree on generated query pipelines" ~count:80
    ~print:print_query_case query_case_gen (fun c ->
      verdict_ok (Oracle.check_query ~engines c))

let prop_ptml_roundtrip =
  QCheck2.Test.make ~name:"PTML round trip is exact on generated programs" ~count:150
    ~print:print_diff_case diff_case_gen (fun c ->
      match Roundtrip.ptml_value c.Tgen.proc with
      | Roundtrip.Pass -> true
      | o -> QCheck2.Test.fail_reportf "%a" Roundtrip.pp_outcome o)

let prop_store_reopen =
  (* each case commits/reopens a temporary store file: keep the count low *)
  QCheck2.Test.make ~name:"durable store survives reopen on generated heaps" ~count:25
    ~print:string_of_int
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      match Harness.run_seed ~validate:true Harness.Store seed with
      | `Agree | `Skip _ -> true
      | `Fail f -> QCheck2.Test.fail_reportf "%s" f.Harness.f_detail)

let prop_purity_sound =
  QCheck2.Test.make ~name:"inferred effect claims hold on generated query pipelines"
    ~count:60 ~print:print_query_case query_case_gen (fun c ->
      match Oracle.check_purity c with
      | Oracle.Purity_agree | Oracle.Purity_untestable _ -> true
      | Oracle.Purity_violation d -> QCheck2.Test.fail_reportf "%s" d)

(* re-optimization in isolation: the tree baseline against a function
   optimized in place twice, with program rules and with program + query
   rules.  The second pass rewrites the first pass's output, on a
   function object that already carries its effect summary — what a
   second [:optimize] of the same function does in tmlsh. *)
let reoptimized_engines =
  List.concat_map
    (function
      | Oracle.Tree -> [ Oracle.Tree ]
      | Oracle.Reflect (name, config) -> [ Oracle.Reoptimized (name ^ "-twice", config) ]
      | Oracle.Mach | Oracle.Opt _ | Oracle.Reoptimized _ | Oracle.Tiered _ -> [])
    engines

let prop_reoptimized_matches =
  QCheck2.Test.make ~name:"re-optimized code matches the tree evaluator on programs"
    ~count:80 ~print:print_diff_case diff_case_gen (fun c ->
      verdict_ok (Oracle.check_case ~engines:reoptimized_engines c))

let prop_reoptimized_matches_query =
  QCheck2.Test.make ~name:"re-optimized code matches the tree evaluator on query pipelines"
    ~count:60 ~print:print_query_case query_case_gen (fun c ->
      verdict_ok (Oracle.check_query ~engines:reoptimized_engines c))

(* the tiered-vs-machine pair in isolation: tree baseline, machine, and
   the two tiered engines (raw and reflect-optimized code, both
   force-promoted to the compiled closure tier), so a divergence is
   attributable to the closure compiler or the promotion path.  The full
   battery above also runs the tiered engines; this suite keeps the
   failure signal narrow. *)
let tiered_pair_engines =
  List.filter
    (function
      | Oracle.Tree | Oracle.Mach | Oracle.Tiered _ -> true
      | Oracle.Opt _ | Oracle.Reflect _ | Oracle.Reoptimized _ -> false)
    engines

let prop_tiered_matches_machine =
  QCheck2.Test.make ~name:"tiered execution matches the machine on programs" ~count:100
    ~print:print_diff_case diff_case_gen (fun c ->
      verdict_ok (Oracle.check_case ~engines:tiered_pair_engines c))

let prop_tiered_matches_machine_query =
  QCheck2.Test.make ~name:"tiered execution matches the machine on query pipelines"
    ~count:60 ~print:print_query_case query_case_gen (fun c ->
      verdict_ok (Oracle.check_query ~engines:tiered_pair_engines c))

(* Policy promotion (not force_promote): with the threshold forced down
   to one closure entry, the machine's tier hook promotes mid-workload.  Run every generated program twice with and without the
   tier and require identical outcomes, output AND step counts — the
   compiled tier charges exactly like the machine, a stronger claim than
   the oracle battery makes (it ignores steps). *)
let run_case_with_policy ~tier (c : Tgen.case) =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create ~fuel:3_000_000 heap in
  let oid = Value.Heap.alloc_func heap ~name:"fuzz" c.Tgen.proc in
  let saved = !Tierup.enabled, !Tierup.call_threshold in
  if tier then begin
    Tierup.enabled := true;
    Tierup.call_threshold := 1
  end
  else Tierup.enabled := false;
  Fun.protect
    ~finally:(fun () ->
      let e, t = saved in
      Tierup.enabled := e;
      Tierup.call_threshold := t)
    (fun () ->
      let args = [ Value.Int c.Tgen.a; Value.Int c.Tgen.b ] in
      let o1 = Machine.run_proc ctx (Value.Oidv oid) args in
      let o2 = Machine.run_proc ctx (Value.Oidv oid) args in
      o1, o2, Buffer.contents ctx.Runtime.out, ctx.Runtime.steps)

let prop_policy_promotion_agrees =
  QCheck2.Test.make ~name:"policy promotion at threshold 1 matches the machine exactly"
    ~count:60 ~print:print_diff_case diff_case_gen (fun c ->
      let m1, m2, mout, msteps = run_case_with_policy ~tier:false c in
      let t1, t2, tout, tsteps = run_case_with_policy ~tier:true c in
      if
        Eval.outcome_equal m1 t1 && Eval.outcome_equal m2 t2
        && String.equal mout tout && msteps = tsteps
      then true
      else
        QCheck2.Test.fail_reportf
          "machine: %a / %a, %S, %d steps@.tiered: %a / %a, %S, %d steps" Eval.pp_outcome
          m1 Eval.pp_outcome m2 mout msteps Eval.pp_outcome t1 Eval.pp_outcome t2 tout
          tsteps)

(* ------------------------------------------------------------------ *)
(* Validation hook                                                     *)
(* ------------------------------------------------------------------ *)

(* the hook is also exercised by every Opt/Reflect engine above; this checks
   it directly against each optimizer level over a seed sweep *)
let test_validation_hook () =
  for seed = 0 to 30 do
    let c = Tgen.case_of_seed seed in
    List.iter
      (fun config ->
        let config = { config with Optimizer.validate = true } in
        match Optimizer.optimize_value ~config c.Tgen.proc with
        | exception Optimizer.Validation_error msg ->
          Alcotest.failf "seed %d: validation failed: %s" seed msg
        | _ -> ())
      [ Optimizer.o1; Optimizer.o2; Optimizer.o3 ]
  done

(* ------------------------------------------------------------------ *)
(* Object-codec round trips over hand-built store objects              *)
(* ------------------------------------------------------------------ *)

let rt_outcome = Alcotest.testable Roundtrip.pp_outcome ( = )
let check_rt name expected got = Alcotest.check rt_outcome name expected got

let test_obj_simple () =
  check_rt "bytes" Roundtrip.Pass
    (Roundtrip.obj (Value.Bytes (Bytes.of_string "hello\x00\xffworld")));
  check_rt "array" Roundtrip.Pass
    (Roundtrip.obj (Value.Array [| Value.Int 1; Value.Real 2.5; Value.Str "x" |]));
  check_rt "vector" Roundtrip.Pass
    (Roundtrip.obj
       (Value.Vector [| Value.Bool true; Value.Char 'q'; Value.Unit; Value.Oidv (Oid.of_int 7) |]));
  check_rt "tuple" Roundtrip.Pass
    (Roundtrip.obj (Value.Tuple [| Value.Int 42; Value.Str "row" |]));
  check_rt "module" Roundtrip.Pass
    (Roundtrip.obj
       (Value.Module
          { Value.mod_name = "m"; exports = [| "one", Value.Int 1; "two", Value.Int 2 |] }))

let test_obj_relation () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let oid =
    Tml_query.Rel.create ctx ~name:"t"
      [ [| Value.Int 1; Value.Int 2 |]; [| Value.Int 3; Value.Int 4 |] ]
  in
  Tml_query.Rel.add_index ctx oid 0;
  (* the relation header round-trips with its page/index/stats references
     in the payload; index and stats siblings and the row tuples
     round-trip as plain objects *)
  check_rt "relation" Roundtrip.Pass (Roundtrip.obj (Value.Heap.get heap oid));
  (match Tml_query.Rel.find_index ctx oid 0 with
  | Some _ -> ()
  | None -> Alcotest.fail "index missing");
  List.iter
    (fun (_, ixoid) ->
      check_rt "index object" Roundtrip.Pass (Roundtrip.obj (Value.Heap.get heap ixoid)))
    (Tml_query.Rel.get ctx oid).Value.rel_indexes;
  (match (Tml_query.Rel.get ctx oid).Value.rel_stats with
  | Some soid ->
    check_rt "stats object" Roundtrip.Pass (Roundtrip.obj (Value.Heap.get heap soid))
  | None -> Alcotest.fail "stats missing");
  Array.iter
    (fun row ->
      match row with
      | Value.Oidv t ->
        check_rt "row tuple" Roundtrip.Pass (Roundtrip.obj (Value.Heap.get heap t))
      | _ -> Alcotest.fail "relation row is not an Oidv")
    (Tml_query.Rel.rows ctx oid)

let test_obj_func () =
  let heap = Value.Heap.create () in
  let proc =
    Sexp.parse_value "proc(a b ce! cc!) (+ a b ce! cont(t) (cc! t))"
  in
  let oid = Value.Heap.alloc_func heap ~name:"f" proc in
  check_rt "func" Roundtrip.Pass (Roundtrip.obj (Value.Heap.get heap oid));
  (* a live tree closure in the R-value bindings is the one specified
     rejection: the codec must refuse it, the oracle records a skip *)
  (match Value.Heap.get heap oid with
  | Value.Func fo ->
    let clo =
      match proc with
      | Term.Abs f -> Value.Closure { Value.t_abs = f; t_env = Ident.Map.empty }
      | _ -> assert false
    in
    fo.Value.fo_bindings <- [ (Ident.fresh "g", clo) ];
    (match Roundtrip.obj (Value.Heap.get heap oid) with
    | Roundtrip.Skip _ -> ()
    | o -> Alcotest.failf "live closure not rejected: %a" Roundtrip.pp_outcome o)
  | _ -> Alcotest.fail "alloc_func did not produce a Func")

(* ------------------------------------------------------------------ *)
(* Corpus replay: every minimized reproducer, as a named test          *)
(* ------------------------------------------------------------------ *)

let corpus_dir = "corpus"

let corpus_files () =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".corpus")
    |> List.sort compare
  else []

let corpus_tests =
  let replay_one file () =
    let oracle, case = Harness.load_entry (Filename.concat corpus_dir file) in
    match Harness.replay ~validate:true oracle case with
    | Ok () -> ()
    | Error detail -> Alcotest.failf "%s regressed:\n%s" file detail
  in
  let present () =
    if corpus_files () = [] then
      Alcotest.fail "test/corpus is empty or not wired as a test dependency"
  in
  Alcotest.test_case "corpus present" `Quick present
  :: List.map (fun f -> Alcotest.test_case f `Quick (replay_one f)) (corpus_files ())

(* the purity entry must stay *testable*: replay maps "no testable claims"
   to ok, so this checks the analysis still claims read-only/fault-free on
   the checked-in pipeline and that execution still agrees *)
let test_purity_corpus_testable () =
  match Harness.load_entry (Filename.concat corpus_dir "purity-readonly-select.corpus") with
  | Harness.Purity, Harness.Cquery q -> (
    match Oracle.check_purity q with
    | Oracle.Purity_agree -> ()
    | Oracle.Purity_untestable m -> Alcotest.failf "claims became untestable: %s" m
    | Oracle.Purity_violation d -> Alcotest.failf "analysis unsoundness: %s" d)
  | _ -> Alcotest.fail "expected a purity query entry"

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest =
    (* fixed PRNG: the suite is deterministic run to run *)
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 0x7e57; 0xc8ec |])
  in
  Alcotest.run "tml_check"
    [
      ( "differential",
        List.map to_alcotest
          [
            prop_engines_agree;
            prop_query_engines_agree;
            prop_reoptimized_matches;
            prop_reoptimized_matches_query;
            prop_tiered_matches_machine;
            prop_tiered_matches_machine_query;
            prop_policy_promotion_agrees;
            prop_ptml_roundtrip;
            prop_store_reopen;
            prop_purity_sound;
          ] );
      ( "validation",
        [ Alcotest.test_case "optimizer passes validate on a seed sweep" `Quick
            test_validation_hook ] );
      ( "obj round trip",
        [
          Alcotest.test_case "simple objects" `Quick test_obj_simple;
          Alcotest.test_case "relation and rows" `Quick test_obj_relation;
          Alcotest.test_case "functions and live closures" `Quick test_obj_func;
        ] );
      ( "corpus",
        corpus_tests
        @ [
            Alcotest.test_case "purity entry makes live claims" `Quick
              test_purity_corpus_testable;
          ] );
    ]
