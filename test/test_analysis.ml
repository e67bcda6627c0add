(* Tests for the effect / alias / escape analysis framework (lib/analysis):
   the signature lattice, inferred effect signatures on hand-built terms,
   shadow-aware occurrence counting, escape verdicts, the effect-based
   optimizer rules, the analysis-gated constant-selection rewrite, and the
   per-OID summary cache. *)

open Tml_core
open Tml_analysis

let () = Tml_query.Qprims.install ()

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let parse = Sexp.parse_app

let proc_sig src =
  match Sexp.parse_value src with
  | Term.Abs f -> Infer.strip (Infer.summarize Infer.empty_env f)
  | _ -> Alcotest.fail "expected an abstraction"

let count_prim name a =
  let n = ref 0 in
  Term.iter_apps
    (fun { Term.func; _ } -> if func = Term.Prim name then incr n)
    { Term.func = Term.prim "hold"; args = [ Term.Abs { Term.params = []; body = a } ] };
  !n

(* ------------------------------------------------------------------ *)
(* Signature lattice                                                   *)
(* ------------------------------------------------------------------ *)

let test_lattice () =
  check tbool "bot is read-only" true (Effsig.read_only Effsig.bot);
  check tbool "top is not" false (Effsig.read_only Effsig.top);
  check tbool "join is monotone to top" true
    (Effsig.equal (Effsig.join Effsig.bot Effsig.top) Effsig.top);
  check tbool "join of classes is the max" true
    (Effsig.class_join Prim.Observer Prim.Mutator = Prim.Mutator);
  check tbool "class order" true (Effsig.class_leq Prim.Pure Prim.External);
  let k = Ident.fresh ~sort:Ident.Cont "k" in
  let s = Effsig.exit_to k in
  check tbool "exit is within itself" true (Effsig.exits_within s (Ident.Set.singleton k));
  check tbool "exit is not within empty" false (Effsig.exits_within s Ident.Set.empty);
  check tbool "unknown exits are never within" false
    (Effsig.exits_within Effsig.top (Ident.Set.singleton k))

(* ------------------------------------------------------------------ *)
(* Inferred effect signatures                                          *)
(* ------------------------------------------------------------------ *)

let test_sig_pure_jump () =
  let s = proc_sig "proc(a ce! cc!) (cc! a)" in
  check tbool "pure" true (s.Effsig.eff = Prim.Pure);
  check tbool "terminates" false s.Effsig.diverges;
  check tbool "fault-free" false s.Effsig.faults;
  check tbool "confined" true (Effsig.exits_within s Ident.Set.empty)

let test_sig_observer_pipeline () =
  (* the purity corpus shape: select + count over an opaque relation *)
  let s =
    proc_sig
      "proc(r ce! cc!) (select proc(x pce! pcc!) ([] x 1 cont(f) (< f 6 cont() (pcc! \
       true) cont() (pcc! false))) r ce! cont(sel) (count sel cont(n) (cc! n)))"
  in
  check tbool "read-only" true (Effsig.read_only s);
  check tbool "terminates" false s.Effsig.diverges;
  (* [] and < have runtime sort checks: the fault bit must stay set *)
  check tbool "may fault" true s.Effsig.faults

let test_sig_mutator () =
  let s =
    proc_sig "proc(r ce! cc!) (tuple 1 cont(t) (insert r t ce! cont(u) (cc! u)))"
  in
  check tbool "not read-only" false (Effsig.read_only s);
  check tbool "mutator class" true (s.Effsig.eff = Prim.Mutator)

let test_sig_unknown_callee () =
  (* calling an opaque parameter: everything is possible *)
  let s = proc_sig "proc(f ce! cc!) (f 1 ce! cc!)" in
  check tbool "worst case" true (Effsig.equal s Effsig.top)

let test_sig_faults () =
  (* + has an overflow check; == with a default branch is total *)
  let s = proc_sig "proc(a ce! cc!) (+ a 1 ce! cont(t) (cc! t))" in
  check tbool "arith may fault" true s.Effsig.faults;
  check tbool "arith is pure" true (s.Effsig.eff = Prim.Pure);
  let s2 = proc_sig "proc(a ce! cc!) (== a 1 cont() (cc! 1) cont() (cc! 2))" in
  check tbool "case with default never faults" false s2.Effsig.faults

let test_sig_exits () =
  let a = parse "(k! 1)" in
  let s = Infer.sig_of_app a in
  let k =
    match Ident.Set.elements (Term.free_vars_app a) with
    | [ k ] -> k
    | _ -> Alcotest.fail "expected one free variable"
  in
  check tbool "jump exits to k" true (Effsig.exits_within s (Ident.Set.singleton k));
  check tbool "jump arity seen" true (Infer.jumps_with_arity k 1 a);
  check tbool "jump arity mismatch" false (Infer.jumps_with_arity k 2 a)

(* ------------------------------------------------------------------ *)
(* Shadow-aware occurrence counts                                      *)
(* ------------------------------------------------------------------ *)

(* Sexp binders alphatize, so duplicated bindings — case arms or Y nests
   sharing an identifier mid-rewrite — must be built by hand *)
let test_occurs_shadowing () =
  let x = Ident.fresh "x" in
  let g = Ident.fresh "g" in
  let k = Ident.fresh ~sort:Ident.Cont "k" in
  (* (g x cont(x) (g x x k!)) — the inner cont re-binds x *)
  let inner = Term.app (Term.var g) [ Term.var x; Term.var x; Term.var k ] in
  let a = Term.app (Term.var g) [ Term.var x; Term.abs [ x ] inner ] in
  check tint "only the free occurrence counts" 1 (Occurs.count_app x a);
  check tbool "occurs sees the free occurrence" true (Occurs.occurs_app x a);
  (* a value whose only uses sit under the re-binder is dead *)
  let dead = Term.app (Term.var g) [ Term.int 0; Term.abs [ x ] inner ] in
  check tint "uses under the re-binder do not count" 0 (Occurs.count_app x dead);
  check tbool "so the outer binding is dead" false (Occurs.occurs_app x dead);
  (* the flat table stays per-use: it cannot attribute bindings *)
  let all = Occurs.count_all_app dead in
  check tint "flat table counts every use" 2
    (match Ident.Tbl.find_opt all x with Some n -> n | None -> 0)

(* ------------------------------------------------------------------ *)
(* Escape verdicts                                                     *)
(* ------------------------------------------------------------------ *)

let tmp_of a =
  (* the σtrue select binds its result as the continuation's parameter *)
  match a.Term.args with
  | [ _; _; _; Term.Abs { Term.params = [ tmp ]; body } ] -> tmp, body
  | _ -> Alcotest.fail "expected (select pred rel ce cont(tmp) body)"

let select_src body =
  Printf.sprintf "(select proc(x pce! pcc!) (pcc! true) r ce! cont(s) %s)" body

let test_escape_reader () =
  let tmp, body = tmp_of (parse (select_src "(count s k!)")) in
  check tbool "read-only consumer is safe" true (Alias.select_alias_ok ~tmp body)

let test_escape_mutation () =
  let tmp, body =
    tmp_of (parse (select_src "(tuple 0 cont(t) (insert s t ce2! cont(u) (k! 0)))"))
  in
  check tbool "mutation through the alias is rejected" false
    (Alias.select_alias_ok ~tmp body)

let test_escape_unknown_call () =
  let tmp, body = tmp_of (parse (select_src "(f s k!)")) in
  check tbool "escape to an unknown procedure is rejected" false
    (Alias.select_alias_ok ~tmp body)

let test_escape_known_reader_flow () =
  (* the temp flows through a β-bound procedure that only reads it: the
     syntactic walk rejects this, the flow analysis accepts it *)
  let a =
    parse
      (select_src
         "(proc(q qce! qcc!) (count q cont(n) (qcc! n)) s ce! cont(m) (k! m))")
  in
  let tmp, body = tmp_of a in
  check tbool "flow through a known reader is safe" true
    (Alias.select_alias_ok ~tmp body)

let test_escape_capture () =
  (* a closure capturing the temp handed to an unknown procedure *)
  let tmp, body =
    tmp_of (parse (select_src "(f proc(z zce! zcc!) (count s cont(n) (zcc! n)) k!)"))
  in
  check tbool "captured escape is rejected" false (Alias.select_alias_ok ~tmp body)

let test_escape_closure_return () =
  (* a closure capturing the temp leaves through the return continuation:
     the caller may run it after inserting into r, and it must still count
     the copy.  The rule must keep the select whether or not the analysis
     bridge is enabled. *)
  let src = select_src "(cc! proc(fce! fcc!) (count s fcc!))" in
  let tmp, body = tmp_of (parse src) in
  check tbool "returned closure escape is rejected" false (Alias.select_alias_ok ~tmp body);
  let reduce () = Rewrite.reduce_app ~rules:Tml_query.Qopt.static_rules (parse src) in
  check tint "σtrue kept" 1 (count_prim "select" (reduce ()));
  Bridge.enabled := false;
  let without =
    Fun.protect ~finally:(fun () -> Bridge.enabled := true) reduce
  in
  check tint "σtrue kept with the bridge off" 1 (count_prim "select" without)

(* ------------------------------------------------------------------ *)
(* The optimizer bridge                                                *)
(* ------------------------------------------------------------------ *)

(* a call whose continuation ignores the result; the callee is a total
   case dispatch (pure, never faults, confined to its cc) *)
let dead_total_call =
  "(proc(a ce! cc!) (== a 1 cont() (cc! 1) cont() (cc! 2)) b ke! cont(x) (k! 7))"

let test_effect_remove_fires () =
  match Bridge.effect_remove (parse dead_total_call) with
  | Some a' ->
    check tbool "reduces to the continuation body" true
      (Term.alpha_equal_by_name_app a' (parse "(k! 7)"))
  | None -> Alcotest.fail "effect_remove did not fire"

let test_effect_remove_refuses () =
  (* faulting callee: + overflows on some inputs, deletion would be
     observable through the fault *)
  let faulting = "(proc(a ce! cc!) (+ a 1 ce! cont(t) (cc! t)) b ke! cont(x) (k! 7))" in
  check tbool "faulting callee kept" true (Bridge.effect_remove (parse faulting) = None);
  (* result used: not a removal candidate at all *)
  let used =
    "(proc(a ce! cc!) (== a 1 cont() (cc! 1) cont() (cc! 2)) b ke! cont(x) (k! x))"
  in
  check tbool "live result kept" true (Bridge.effect_remove (parse used) = None);
  (* mutating callee *)
  let mut = "(proc(a ce! cc!) (insert r a ce! cont(u) (cc! u)) b ke! cont(x) (k! 7))" in
  check tbool "mutating callee kept" true (Bridge.effect_remove (parse mut) = None)

let test_optimizer_uses_effect_remove () =
  (* the plain optimizer cannot delete the dispatch (unknown scrutinee, no
     syntactic rule applies); the analysis bridge can *)
  let a = parse dead_total_call in
  let plain, _ = Optimizer.optimize_app ~config:Optimizer.o3 a in
  check tint "plain o3 keeps the dispatch" 1 (count_prim "==" plain);
  let bridged, _ = Optimizer.optimize_app ~config:(Bridge.with_analysis Optimizer.o3) a in
  check tint "analysis o3 deletes it" 0 (count_prim "==" bridged)

let test_gated_constant_select () =
  (* acceptance case: σtrue whose temp flows through a β-bound reader used
     TWICE — β reduction cannot inline a multi-use abstraction, so the
     region keeps its calls through a variable: the flow analysis resolves
     the binding and accepts it *)
  let src =
    select_src
      "(cont(reader) (reader s ce! cont(m) (reader s ce! cont(m2) (k! m m2))) \
       proc(q qce! qcc!) (count q cont(n) (qcc! n)))"
  in
  let reduce () = Rewrite.reduce_app ~rules:Tml_query.Qopt.static_rules (parse src) in
  let with_analysis = reduce () in
  check tint "analysis gate fires σtrue" 0 (count_prim "select" with_analysis);
  (* the fuzzer's minimized mutation counterexample is still rejected *)
  let mut =
    parse (select_src "(tuple 0 cont(t) (insert s t ce2! cont(u) (k! 0)))")
  in
  let mut' = Rewrite.reduce_app ~rules:Tml_query.Qopt.static_rules mut in
  check tint "mutating region still refused" 1 (count_prim "select" mut')

(* ------------------------------------------------------------------ *)
(* Per-OID summary cache                                               *)
(* ------------------------------------------------------------------ *)

let test_cache () =
  Cache.clear ();
  let oid = Oid.of_int 4242 in
  check tbool "miss before remember" true (Cache.find oid = None);
  Cache.remember oid (Sexp.parse_value "proc(a ce! cc!) (cc! a)");
  (match Cache.find oid with
  | Some { Cache.e_summary = Some s; _ } ->
    check tbool "cached summary is benign" true
      (Effsig.read_only (Infer.strip s))
  | _ -> Alcotest.fail "expected a cached summary");
  (* the resolver hook makes a literal-OID call a known callee *)
  let call =
    Term.app (Term.oid oid)
      [ Term.int 1; Term.var (Ident.fresh ~sort:Ident.Cont "ke");
        Term.var (Ident.fresh ~sort:Ident.Cont "k") ]
  in
  check tbool "literal-OID call resolves through the cache" true
    (Effsig.read_only (Infer.sig_of_app call));
  Cache.invalidate oid;
  check tbool "invalidated" true (Cache.find oid = None);
  check tbool "unresolved OID call is worst-case" true
    (Effsig.equal (Infer.sig_of_app call) Effsig.top);
  let hits, misses = Cache.stats () in
  check tbool "stats counted" true (hits >= 1 && misses >= 2);
  Cache.clear ();
  check tbool "stats reset" true (Cache.stats () = (0, 0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tml_analysis"
    [
      ("lattice", [ Alcotest.test_case "signature lattice" `Quick test_lattice ]);
      ( "effect inference",
        [
          Alcotest.test_case "pure jump" `Quick test_sig_pure_jump;
          Alcotest.test_case "observer pipeline" `Quick test_sig_observer_pipeline;
          Alcotest.test_case "mutator" `Quick test_sig_mutator;
          Alcotest.test_case "unknown callee" `Quick test_sig_unknown_callee;
          Alcotest.test_case "fault bits" `Quick test_sig_faults;
          Alcotest.test_case "exit tracking" `Quick test_sig_exits;
        ] );
      ( "occurs",
        [ Alcotest.test_case "shadow-aware counts" `Quick test_occurs_shadowing ] );
      ( "escape",
        [
          Alcotest.test_case "reader consumer" `Quick test_escape_reader;
          Alcotest.test_case "mutation" `Quick test_escape_mutation;
          Alcotest.test_case "unknown call" `Quick test_escape_unknown_call;
          Alcotest.test_case "known reader flow" `Quick test_escape_known_reader_flow;
          Alcotest.test_case "closure capture" `Quick test_escape_capture;
          Alcotest.test_case "closure returned" `Quick test_escape_closure_return;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "effect_remove fires" `Quick test_effect_remove_fires;
          Alcotest.test_case "effect_remove refuses" `Quick test_effect_remove_refuses;
          Alcotest.test_case "optimizer integration" `Quick test_optimizer_uses_effect_remove;
          Alcotest.test_case "gated constant select" `Quick test_gated_constant_select;
        ] );
      ("cache", [ Alcotest.test_case "per-OID summaries" `Quick test_cache ]);
    ]
