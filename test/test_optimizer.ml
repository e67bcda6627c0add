(* Tests for the optimizer driver: the expansion pass, the
   reduction/expansion alternation, the penalty mechanism, and the
   configuration presets. *)

open Tml_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let parse_v = Sexp.parse_value

(* ------------------------------------------------------------------ *)
(* Expansion                                                            *)
(* ------------------------------------------------------------------ *)

let multi_use_term () =
  (* f bound to a small procedure used twice: the reduction pass must keep
     it, the expansion pass inlines both call sites *)
  Sexp.parse_app
    "(cont(f) (f 1 ce! cont(t) (f t ce! cc!)) proc(x ce2! cc2!) (+ x 10 ce2! cc2!))"

let test_expand_multi_use () =
  let a = multi_use_term () in
  let r = Expand.expand_app Expand.default a in
  check tbool "expanded" true (r.Expand.expansions >= 1);
  check tbool "grew" true (r.Expand.growth > 0);
  (* a subsequent reduction now folds everything *)
  let reduced = Rewrite.reduce_app r.Expand.term in
  check tbool "constant-folds after expansion" true
    (Term.alpha_equal_by_name_app reduced (Sexp.parse_app "(cc! 21)"))

let test_expand_respects_limit () =
  let a = multi_use_term () in
  let cfg = { Expand.default with Expand.inline_limit = -100 } in
  let r = Expand.expand_app cfg a in
  check tint "nothing inlined under a hostile limit" 0 r.Expand.expansions

let test_expand_growth_budget () =
  let a = multi_use_term () in
  let cfg = { Expand.default with Expand.growth_limit = 1 } in
  let r = Expand.expand_app cfg a in
  check tint "growth budget blocks inlining" 0 r.Expand.expansions

let test_expand_y_unrolling () =
  (* a loop with a constant bound unrolls completely under o3 *)
  let v =
    parse_v
      "proc(z u ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! 3 0) proc(i acc ce2! \
       cc2!) (<= i 0 cont() (cc! acc) cont() (+ acc i ce2! cont(a2) (- i 1 ce2! cont(i2) \
       (loop! i2 a2 ce2! cc2!))))))"
  in
  ignore v;
  (* note: Y members that are procs (with their own ce/cc) are eligible for
     expansion; the simpler cont-member loops are not duplicated.  Unrolling
     is verified behaviourally via semantic preservation in test_props; here
     we check the flag is honoured at all. *)
  let with_y = { Optimizer.o3 with Optimizer.max_rounds = 6 } in
  let _, report = Optimizer.optimize_value ~config:with_y v in
  check tbool "report is sane" true (report.Optimizer.rounds >= 1)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let test_rounds_and_fixpoint () =
  let a = multi_use_term () in
  let a', report = Optimizer.optimize_app a in
  check tbool "optimized to a constant" true
    (Term.alpha_equal_by_name_app a' (Sexp.parse_app "(cc! 21)"));
  check tbool "took more than one round" true (report.Optimizer.rounds >= 2);
  check tbool "cost decreased" true
    (report.Optimizer.cost_after < report.Optimizer.cost_before)

let test_penalty_stops () =
  (* with a tiny penalty limit the optimizer stops early but still returns a
     correct term *)
  let a = multi_use_term () in
  let config = { Optimizer.default with Optimizer.penalty_limit = 0 } in
  let _, report = Optimizer.optimize_app ~config a in
  check tbool "penalty respected" true (report.Optimizer.penalty <= 64)

let test_o1_reduction_only () =
  let a = multi_use_term () in
  let a', report = Optimizer.optimize_app ~config:Optimizer.o1 a in
  check tint "no expansions at O1" 0 report.Optimizer.expansions;
  (* the multi-use binding must still be there *)
  check tbool "binding survives O1" true
    (match a'.Term.func with
    | Term.Abs _ -> true
    | _ -> false)

let test_idempotent () =
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 50 do
    let v = Gen.proc2 rng ~size:25 in
    let once, _ = Optimizer.optimize_value v in
    let twice, _ = Optimizer.optimize_value once in
    (* a second run may still expand more (budgets reset), but must not make
       the term worse *)
    check tbool "second run does not regress cost" true
      (Cost.value_cost twice <= Cost.value_cost once)
  done

let test_wf_preserved () =
  let rng = Random.State.make [| 22 |] in
  for _ = 1 to 100 do
    let v = Gen.proc2 rng ~size:30 in
    let v', _ = Optimizer.optimize_value ~config:Optimizer.o3 v in
    match Wf.check_value v' with
    | Ok () -> ()
    | Error es ->
      Alcotest.failf "optimizer broke well-formedness:@.%s@.%s" (Sexp.print_value v')
        (String.concat "; " (List.map (fun e -> e.Wf.message) es))
  done

let test_report_fields () =
  let v = parse_v "proc(x ce! cc!) (+ 1 2 ce! cont(t) (cc! t))" in
  let v', report = Optimizer.optimize_value v in
  check tbool "size decreased" true (report.Optimizer.size_after < report.Optimizer.size_before);
  check tbool "folded" true (report.Optimizer.stats.Rewrite.fold >= 1);
  check tbool "result mentions 3" true
    (Term.alpha_equal_by_name_value v' (parse_v "proc(x ce! cc!) (cc! 3)"))

let test_with_rules () =
  let hits = ref 0 in
  let rule (a : Term.app) =
    match a.Term.func with
    | Term.Prim "size" ->
      incr hits;
      None
    | _ -> None
  in
  let config = Optimizer.with_rules Optimizer.default [ rule ] in
  let v = parse_v "proc(a u ce! cc!) (size a cc!)" in
  let _ = Optimizer.optimize_value ~config v in
  check tbool "domain rule consulted" true (!hits >= 1)

(* ------------------------------------------------------------------ *)
(* Validation and sharing                                               *)
(* ------------------------------------------------------------------ *)

(* whole-tree translation validation on every pass of an aggressive run
   accepts what the optimizer makes of generated terms, and the result is
   well-formed *)
let test_validated_o3 () =
  let rng = Random.State.make [| 31 |] in
  let config = { Optimizer.o3 with Optimizer.validate = true } in
  for _ = 1 to 60 do
    let v = Gen.proc2 rng ~size:30 in
    let v', _ = Optimizer.optimize_value ~config v in
    check tbool "well-formed result" true (Wf.well_formed_value v')
  done

let test_normal_forms_shared () =
  (* a term already in normal form must come back physically unchanged,
     and so must a tree the expansion pass leaves alone *)
  let a = Sexp.parse_app "(+ x y ce! cc!)" in
  check tbool "normal form returned physically" true (Rewrite.reduce_app a == a);
  let r = Expand.expand_app Expand.default a in
  check tbool "expansion shares an unchanged tree" true (r.Expand.term == a)

(* the reducer rebuilds only what a rule changed: a normal form comes
   back physically, and so does a sibling that a rewrite left alone *)
let test_reduction_shares_unchanged () =
  let rng = Random.State.make [| 2025 |] in
  for _ = 1 to 60 do
    let nf = Rewrite.reduce_value (Gen.proc2 rng ~size:40) in
    check tbool "a normal form is a fixed point" true (Rewrite.reduce_value nf == nf)
  done;
  let a =
    Sexp.parse_app
      "(g proc(x ce2! cc2!) (+ 1 2 ce2! cont(t) (cc2! t)) proc(y ce3! cc3!) (+ y z ce3! \
       cc3!) ce! cc!)"
  in
  let a' = Rewrite.reduce_app a in
  match a.Term.args, a'.Term.args with
  | [ p; q; _; _ ], [ p'; q'; _; _ ] ->
    check tbool "the redex was rewritten" true (p' != p);
    check tbool "its normal-form sibling is shared" true (q' == q)
  | _ -> Alcotest.fail "reduction changed the call's arity"

(* a report's sizes and costs are the walking measures of the trees it
   went between, at every optimization level *)
let test_report_measures () =
  let rng = Random.State.make [| 37 |] in
  List.iter
    (fun config ->
      for _ = 1 to 20 do
        match Gen.proc2 rng ~size:30 with
        | Term.Abs abs ->
          let body = abs.Term.body in
          let body', r = Optimizer.optimize_app ~config body in
          check tint "size before" (Term.size_app body) r.Optimizer.size_before;
          check tint "size after" (Term.size_app body') r.Optimizer.size_after;
          check tint "cost before" (Cost.app_cost body) r.Optimizer.cost_before;
          check tint "cost after" (Cost.app_cost body') r.Optimizer.cost_after
        | _ -> Alcotest.fail "generator did not produce an abstraction"
      done)
    [ Optimizer.o1; Optimizer.o2; Optimizer.o3 ]

let test_validation_catches_breakage () =
  (* validation must reject a rule that breaks scoping *)
  let rogue (a : Term.app) =
    match a.Term.func, a.Term.args with
    | Term.Prim "+", _ ->
      (* rewrite to a reference to a variable that does not exist *)
      Some (Term.app (Term.var (Ident.fresh "ghost")) [])
    | _ -> None
  in
  let config =
    Optimizer.with_rules { Optimizer.o2 with Optimizer.validate = true } [ rogue ]
  in
  let v = parse_v "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))" in
  match Optimizer.optimize_value ~config v with
  | exception Optimizer.Validation_error _ -> ()
  | _ -> Alcotest.fail "validation accepted an out-of-scope reference"

let test_profile_records () =
  Profile.reset ();
  Profile.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Profile.enabled := false;
      Profile.reset ())
    (fun () ->
      let v = parse_v "proc(x ce! cc!) (+ 1 2 ce! cont(t) (cc! t))" in
      let _ = Optimizer.optimize_value ~config:Optimizer.o2 v in
      let p = Profile.global in
      check tbool "reduce passes counted" true (p.Profile.reduce_passes > 0);
      check tbool "optimize calls counted" true (p.Profile.optimize_calls > 0);
      check tbool "rule fires recorded" true (p.Profile.fires.Rewrite.fold >= 1);
      let table = Format.asprintf "%a" Profile.pp p in
      check tbool "report renders" true (String.length table > 0))

let () =
  Primitives.install ();
  Alcotest.run "tml_optimizer"
    [
      ( "expand",
        [
          Alcotest.test_case "inlines multi-use abstractions" `Quick test_expand_multi_use;
          Alcotest.test_case "inline limit" `Quick test_expand_respects_limit;
          Alcotest.test_case "growth budget" `Quick test_expand_growth_budget;
          Alcotest.test_case "Y unrolling flag" `Quick test_expand_y_unrolling;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rounds to fixpoint" `Quick test_rounds_and_fixpoint;
          Alcotest.test_case "penalty stops the loop" `Quick test_penalty_stops;
          Alcotest.test_case "O1 is reduction only" `Quick test_o1_reduction_only;
          Alcotest.test_case "never regresses" `Quick test_idempotent;
          Alcotest.test_case "preserves well-formedness" `Quick test_wf_preserved;
          Alcotest.test_case "report fields" `Quick test_report_fields;
          Alcotest.test_case "domain rules plug in" `Quick test_with_rules;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "validated o3 on generated terms" `Quick test_validated_o3;
          Alcotest.test_case "normal forms are shared" `Quick test_normal_forms_shared;
          Alcotest.test_case "reduction shares unchanged subtrees" `Quick
            test_reduction_shares_unchanged;
          Alcotest.test_case "reports measure the trees" `Quick test_report_measures;
          Alcotest.test_case "validation catches an out-of-scope rewrite" `Quick
            test_validation_catches_breakage;
          Alcotest.test_case "profile records passes" `Quick test_profile_records;
        ] );
    ]
