(* Tests for the declarative rewrite-rule DSL (lib/rules) and its
   verification surface: the static checker over every shipped rule, the
   derived per-rule proof obligations, the observational equivalence of the
   head-indexed dispatch with the historical linear scan, and the strict
   fire-name accounting. *)

open Tml_core
open Tml_rules
open Tml_query
open Tml_check

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let shipped_rules () =
  Qopt.install ();
  Qopt.rule_descriptors @ Tml_reflect.Reflect.rule_descriptors

(* ------------------------------------------------------------------ *)
(* Static checker                                                       *)
(* ------------------------------------------------------------------ *)

let test_checker_accepts_shipped () =
  let rules = shipped_rules () in
  check tbool "have a real rule population" true (List.length rules >= 10);
  List.iter
    (fun r ->
      match Check.check r with
      | [] -> ()
      | errs ->
        Alcotest.failf "rule %s: %s" r.Dsl.name
          (String.concat "; " (List.map (fun e -> e.Check.what) errs)))
    rules

let test_checker_rejects_silent_drop () =
  match Check.check Fixtures.select_drop with
  | [] -> Alcotest.fail "unsound fixture passed the static checker"
  | errs ->
    (* the precondition-sufficiency lint must name the dropped predicate *)
    check tbool "names the silent drop" true
      (List.exists
         (fun e ->
           let what = e.Check.what in
           let has needle =
             let nl = String.length needle and wl = String.length what in
             let rec go i = i + nl <= wl && (String.sub what i nl = needle || go (i + 1)) in
             go 0
           in
           has "drop" && has "p")
         errs)

let test_checker_passes_acknowledged_drop () =
  (* the acknowledged variant is the static checker's blind spot by
     construction: only the dynamic obligation can reject it *)
  check tint "acknowledged fixture is statically clean" 0
    (List.length (Check.check Fixtures.select_drop_acknowledged))

(* ------------------------------------------------------------------ *)
(* Proof obligations                                                    *)
(* ------------------------------------------------------------------ *)

let test_obligations_prove_declarative_rules () =
  List.iter
    (fun r ->
      match Obligation.check r with
      | Obligation.Proved n -> check tbool (r.Dsl.name ^ ": proved some redexes") true (n >= 1)
      | v -> Alcotest.failf "rule %s: %a" r.Dsl.name Obligation.pp_verdict v)
    Qrewrite.declarative_rules

let test_obligation_refutes_fixture () =
  match Obligation.check Fixtures.select_drop_acknowledged with
  | Obligation.Refuted _ -> ()
  | v ->
    Alcotest.failf "unsound fixture not refuted: %a" Obligation.pp_verdict v

let test_obligation_closure_unsupported () =
  match Tml_reflect.Reflect.rule_descriptors with
  | [] -> Alcotest.fail "no reflective rule descriptors"
  | r :: _ -> (
    match Obligation.check r with
    | Obligation.Unsupported _ -> ()
    | v -> Alcotest.failf "closure rule %s: %a" r.Dsl.name Obligation.pp_verdict v)

(* ------------------------------------------------------------------ *)
(* Indexed dispatch ≡ linear scan                                       *)
(* ------------------------------------------------------------------ *)

(* the registry's ["rules"] source: fires per rule name since the last
   reset, and one rule's count *)
let rule_fires () =
  match Metrics_probe.(find [ "sources"; "rules" ] (parse (Tml_obs.Metrics.snapshot_json ()))) with
  | Some (Metrics_probe.Obj kvs) ->
    List.sort compare
      (List.filter_map
         (function k, Metrics_probe.Num n when n > 0. -> Some (k, int_of_float n) | _ -> None)
         kvs)
  | _ -> []

let fires name = Option.value ~default:0 (List.assoc_opt name (rule_fires ()))

(* Optimize one value under a rule list, capturing everything observable
   about the optimization itself: result term, derivation log, per-rule
   fire counters. *)
let optimize_obs rules v =
  Tml_obs.Metrics.reset_all ();
  let saved = !Tml_obs.Provenance.enabled in
  Tml_obs.Provenance.enabled := true;
  let config = Optimizer.with_rules Optimizer.o2 rules in
  let v', report =
    Fun.protect
      ~finally:(fun () -> Tml_obs.Provenance.enabled := saved)
      (fun () -> Optimizer.optimize_value ~config v)
  in
  v', report.Optimizer.prov, rule_fires ()

let assert_equiv what v =
  let v1, p1, f1 = optimize_obs (List.map Dsl.to_rewrite Qrewrite.declarative_rules) v in
  let v2, p2, f2 = optimize_obs [ Index.compile Qrewrite.declarative_rules ] v in
  check tbool (what ^ ": same normal form") true (Term.alpha_equal_value v1 v2);
  check tbool (what ^ ": same provenance") true (Tml_obs.Provenance.equal p1 p2);
  check tbool (what ^ ": same fire counts") true (f1 = f2);
  f1

let field_pred ~field ~value =
  Printf.sprintf
    "proc(x pce%d! pcc%d!) ([] x %d cont(t%d) (== t%d %d cont() (pcc%d! true) cont() (pcc%d! \
     false)))"
    field field field field field value field field

(* Hand-written redexes where we know rules fire, so the equivalence is not
   vacuous. *)
let test_equiv_on_redexes () =
  let wrap src =
    let a = Sexp.parse_app src in
    let frees = Ident.Set.elements (Term.free_vars_app a) in
    Term.abs frees a
  in
  let merge =
    Printf.sprintf "(select %s r ce! cont(tmp) (select %s tmp ce! k!))"
      (field_pred ~field:0 ~value:1) (field_pred ~field:1 ~value:2)
  in
  let fires =
    assert_equiv "merge-select" (wrap merge)
  in
  check tbool "merge-select fired in both" true (List.mem_assoc "q.merge-select" fires);
  let const = "(select proc(x pce! pcc!) (pcc! true) r ce! cont(s) (count s k!))" in
  let fires = assert_equiv "constant-select" (wrap const) in
  check tbool "constant-select fired in both" true (List.mem_assoc "q.constant-select" fires)

let test_equiv_on_generated () =
  for seed = 0 to 39 do
    let c = Tgen.query_case_of_seed seed in
    ignore (assert_equiv (Printf.sprintf "query seed %d" seed) c.Tgen.qproc)
  done

let corpus_dir = "corpus"

let test_equiv_on_corpus () =
  let files =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      Sys.readdir corpus_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".corpus")
      |> List.sort compare
    else []
  in
  if files = [] then Alcotest.fail "test/corpus is empty or not wired as a test dependency";
  List.iter
    (fun file ->
      let _, case = Harness.load_entry (Filename.concat corpus_dir file) in
      let proc =
        match case with
        | Harness.Cdiff d -> d.Tgen.proc
        | Harness.Cquery q -> q.Tgen.qproc
      in
      ignore (assert_equiv file proc))
    files

(* ------------------------------------------------------------------ *)
(* Fire accounting: strict names, counters, metrics source              *)
(* ------------------------------------------------------------------ *)

let anonymous_rule : Rewrite.rule =
 fun a ->
  match a.Term.func with
  | Term.Prim "anon-test" -> (
    match a.Term.args with
    | [ k ] -> Some (Term.app k [])
    | _ -> None)
  | _ -> None

let test_strict_names () =
  let saved = !Rewrite.strict_names in
  Fun.protect
    ~finally:(fun () -> Rewrite.strict_names := saved)
    (fun () ->
      let redex () = Sexp.parse_app "(anon-test k!)" in
      (* permissive: the fire lands on the anonymous bucket *)
      Rewrite.strict_names := false;
      Tml_obs.Metrics.reset_all ();
      ignore (Rewrite.reduce_app ~rules:[ anonymous_rule ] (redex ()));
      check tint "anonymous fire counted under the fallback name" 1
        (fires Rewrite.anonymous_rule_name);
      (* strict: the same fire faults *)
      Rewrite.strict_names := true;
      Alcotest.check_raises "strict mode rejects anonymous fires" Rewrite.Unnamed_rule_fire
        (fun () -> ignore (Rewrite.reduce_app ~rules:[ anonymous_rule ] (redex ())));
      (* a named wrapper satisfies strict mode *)
      Tml_obs.Metrics.reset_all ();
      ignore
        (Rewrite.reduce_app
           ~rules:[ Rewrite.named "t.anon-test" anonymous_rule ]
           (redex ()));
      check tint "named fire counted" 1 (fires "t.anon-test"))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_rules_metrics_source () =
  Tml_obs.Metrics.reset_all ();
  let merge =
    Printf.sprintf "(select %s r ce! cont(tmp) (select %s tmp ce! k!))"
      (field_pred ~field:0 ~value:1) (field_pred ~field:1 ~value:2)
  in
  ignore (Rewrite.reduce_app ~rules:Qopt.static_rules (Sexp.parse_app merge));
  check tbool "fire counter present" true (fires "q.merge-select" > 0);
  let json = Tml_obs.Metrics.snapshot_json () in
  check tbool "metrics snapshot has a rules source" true (contains json "\"rules\"");
  check tbool "metrics snapshot attributes the fire" true (contains json "q.merge-select")

let test_registry () =
  Qopt.install ();
  let names = List.map (fun r -> r.Dsl.name) (Index.registered ()) in
  List.iter
    (fun n -> check tbool (n ^ " registered") true (List.mem n names))
    [ "q.merge-select"; "q.constant-select"; "q.index-select"; "reflect.store-fold";
      "reflect.inline-oid" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rules"
    [
      ( "checker",
        [
          Alcotest.test_case "accepts shipped rules" `Quick test_checker_accepts_shipped;
          Alcotest.test_case "rejects silent drop" `Quick test_checker_rejects_silent_drop;
          Alcotest.test_case "passes acknowledged drop" `Quick
            test_checker_passes_acknowledged_drop;
        ] );
      ( "obligations",
        [
          Alcotest.test_case "prove declarative rules" `Quick
            test_obligations_prove_declarative_rules;
          Alcotest.test_case "refute unsound fixture" `Quick test_obligation_refutes_fixture;
          Alcotest.test_case "closure rules unsupported" `Quick
            test_obligation_closure_unsupported;
        ] );
      ( "index",
        [
          Alcotest.test_case "equivalence on known redexes" `Quick test_equiv_on_redexes;
          Alcotest.test_case "equivalence on generated pipelines" `Quick
            test_equiv_on_generated;
          Alcotest.test_case "equivalence on the corpus" `Quick test_equiv_on_corpus;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "strict fire names" `Quick test_strict_names;
          Alcotest.test_case "rules metrics source" `Quick test_rules_metrics_source;
          Alcotest.test_case "registry population" `Quick test_registry;
        ] );
    ]
