(* Tests for the reflective dynamic optimizer (section 4.1). *)

open Tml_core
open Tml_vm
open Tml_frontend
module Reflect = Tml_reflect.Reflect

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let abs_source =
  {|
module complex export
  let mk(x: Real, y: Real): Tuple(Real, Real) = tuple(x, y)
  let re(c: Tuple(Real, Real)): Real = c.1
  let im(c: Tuple(Real, Real)): Real = c.2
end

let cabs(c: Tuple(Real, Real)): Real =
  mathlib.sqrt(complex.re(c) * complex.re(c) + complex.im(c) * complex.im(c))

do io.print_real(cabs(complex.mk(3.0, 4.0))) end
|}

let run_fn ctx fn args =
  let before = ctx.Runtime.steps in
  let outcome = Machine.run_proc ctx fn args in
  outcome, ctx.Runtime.steps - before

let test_optimized_abs () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let mk = Value.Oidv (Link.function_oid program "complex.mk") in
  let c =
    match Machine.run_proc ctx mk [ Value.Real 3.0; Value.Real 4.0 ] with
    | Eval.Done v -> v
    | o -> Alcotest.failf "mk: %a" Eval.pp_outcome o
  in
  let abs_oid = Link.function_oid program "cabs" in
  let before, steps_before = run_fn ctx (Value.Oidv abs_oid) [ c ] in
  let result = Reflect.optimize ctx abs_oid in
  let after, steps_after = run_fn ctx (Value.Oidv result.Reflect.oid) [ c ] in
  (match before, after with
  | Eval.Done v1, Eval.Done v2 ->
    check tbool "same value" true (Value.identical v1 v2);
    check tbool "computes 5.0" true (Value.identical v1 (Value.Real 5.0))
  | o1, o2 -> Alcotest.failf "before %a, after %a" Eval.pp_outcome o1 Eval.pp_outcome o2);
  check tbool "faster" true (steps_after < steps_before);
  check tbool "inlined across the barrier" true (result.Reflect.inlined_calls >= 4);
  (* the optimized body no longer calls through the store: no function OID
     literals remain in call position *)
  (match result.Reflect.optimized_tml with
  | Term.Abs a ->
    let store_calls = ref 0 in
    Term.iter_apps
      (fun node ->
        match node.Term.func with
        | Term.Lit (Literal.Oid _) -> incr store_calls
        | _ -> ())
      a.Term.body;
    check tint "no cross-barrier calls left" 0 !store_calls
  | _ -> Alcotest.fail "expected abs");
  (* the original is untouched and still runs *)
  match run_fn ctx (Value.Oidv abs_oid) [ c ] with
  | (Eval.Done v, _) -> check tbool "original intact" true (Value.identical v (Value.Real 5.0))
  | (o, _) -> Alcotest.failf "original broken: %a" Eval.pp_outcome o

let test_attrs_cached () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let result = Reflect.optimize ctx abs_oid in
  (match Value.Heap.get ctx.Runtime.heap result.Reflect.oid with
  | Value.Func fo ->
    check tbool "cost_before cached" true (List.mem_assoc "cost_before" fo.Value.fo_attrs);
    check tbool "cost_after cached" true (List.mem_assoc "cost_after" fo.Value.fo_attrs)
  | _ -> Alcotest.fail "not a function");
  match Value.Heap.get ctx.Runtime.heap abs_oid with
  | Value.Func fo ->
    check tbool "original records its optimized version" true
      (List.mem_assoc "optimized_as" fo.Value.fo_attrs)
  | _ -> Alcotest.fail "not a function"

let test_ptml_path () =
  (* decoding from PTML must agree with the in-memory tree *)
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let r1 = Reflect.optimize ~config:{ Reflect.default with Reflect.use_ptml = true } ctx abs_oid in
  let r2 =
    Reflect.optimize ~config:{ Reflect.default with Reflect.use_ptml = false } ctx abs_oid
  in
  check tbool "same optimization from PTML and memory" true
    (Term.alpha_equal_value r1.Reflect.optimized_tml r2.Reflect.optimized_tml)

let test_inline_budget () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let result =
    Reflect.optimize ~config:{ Reflect.default with Reflect.inline_budget = 0 } ctx abs_oid
  in
  check tint "budget 0 inlines nothing" 0 result.Reflect.inlined_calls

let test_store_fold () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let vec = Value.Heap.alloc heap (Value.Vector [| Value.Int 10; Value.Int 20 |]) in
  let arr = Value.Heap.alloc heap (Value.Array [| Value.Int 10; Value.Int 20 |]) in
  let src oid = Printf.sprintf "([] <oid %d> 1 k!)" (Oid.to_int oid) in
  (* immutable vector: folds to the element *)
  let folded = Rewrite.reduce_app ~rules:[ Reflect.store_fold ctx ] (Sexp.parse_app (src vec)) in
  check tbool "vector read folded" true
    (Term.alpha_equal_by_name_app folded (Sexp.parse_app "(k! 20)"));
  (* mutable array: never folded *)
  let kept = Rewrite.reduce_app ~rules:[ Reflect.store_fold ctx ] (Sexp.parse_app (src arr)) in
  check tbool "array read kept" true
    (match kept.Term.func with
    | Term.Prim "[]" -> true
    | _ -> false);
  (* size of an immutable object folds *)
  let sized =
    Rewrite.reduce_app ~rules:[ Reflect.store_fold ctx ]
      (Sexp.parse_app (Printf.sprintf "(size <oid %d> k!)" (Oid.to_int vec)))
  in
  check tbool "size folded" true
    (Term.alpha_equal_by_name_app sized (Sexp.parse_app "(k! 2)"))

let test_inplace_recursive () =
  (* optimizing in place keeps self-recursive calls correct: the oid literal
     embedded in the optimized body points back at the *updated* object *)
  let src =
    {|
let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
do io.print_int(fib(14)) end
|}
  in
  let program = Link.load src in
  let ctx = program.Link.ctx in
  let outcome1, steps1 = Link.run_main program ~engine:`Machine () in
  (match outcome1 with
  | Eval.Done _ -> ()
  | o -> Alcotest.failf "unoptimized: %a" Eval.pp_outcome o);
  Reflect.optimize_all ctx (Link.all_function_oids program);
  let outcome2, steps2 = Link.run_main program ~engine:`Machine () in
  (match outcome2 with
  | Eval.Done _ -> ()
  | o -> Alcotest.failf "optimized: %a" Eval.pp_outcome o);
  let out = Link.output program in
  check tbool "both outputs are fib(14)=377" true (out = "377377");
  check tbool "dynamic optimization pays off" true (steps2 < steps1)

let test_optimize_all_improves_stanford () =
  let r_static = Tml_stanford.Suite.run "intmm" Tml_stanford.Suite.Static in
  let r_dynamic = Tml_stanford.Suite.run "intmm" Tml_stanford.Suite.Dynamic in
  check tbool "outputs agree" true (r_static.Tml_stanford.Suite.output = r_dynamic.Tml_stanford.Suite.output);
  check tbool "dynamic materially faster" true
    (float_of_int r_static.Tml_stanford.Suite.steps
    > 1.3 *. float_of_int r_dynamic.Tml_stanford.Suite.steps)

let test_inline_query_arg () =
  (* a function OID in the predicate position of a select is substituted by
     its body, exposing the field-equality shape to the index rule *)
  let program =
    Link.load
      {|
let aged38(e: Tuple(Int, Int, Int)): Bool = e.2 == 38
let employees = relation(tuple(1, 38, 100), tuple(2, 40, 200))
do mkindex(employees, 2) end
|}
  in
  let ctx = program.Link.ctx in
  (match Link.run_main program ~engine:`Machine () with
  | Eval.Done _, _ -> ()
  | o, _ -> Alcotest.failf "setup failed: %a" Eval.pp_outcome o);
  (* make the predicate self-contained first *)
  let pred_oid = Link.function_oid program "aged38" in
  let _ = Reflect.optimize_inplace ctx pred_oid in
  let rel_oid =
    match Hashtbl.find_opt program.Link.globals "employees" with
    | Some (Value.Oidv o) -> o
    | _ -> Alcotest.fail "no employees relation"
  in
  let query =
    Sexp.parse_app
      (Printf.sprintf "(select <oid %d> <oid %d> ce! k!)" (Oid.to_int pred_oid)
         (Oid.to_int rel_oid))
  in
  let budget = ref 8 in
  let count = ref 0 in
  let rules =
    [ Reflect.inline_query_arg ctx ~budget ~limit:200 ~count ]
    @ Tml_query.Qopt.static_rules
    @ Tml_query.Qopt.runtime_rules ctx
  in
  let optimized = Rewrite.reduce_app ~rules (Rewrite.reduce_app ~rules query) in
  check tbool "predicate inlined" true (!count >= 1);
  check tbool "index rule fired after inlining" true
    (Term.exists_app
       (fun node ->
         match node.Term.func with
         | Term.Prim "indexselect" -> true
         | _ -> false)
       optimized)

(* Figure 4 (experiment E9): the program optimizer inlines the user
   predicate [is38] into the query, and only then can the query optimizer
   see the field equality and use the runtime index.  Without the query
   rules the scan stays; the answer is the same either way. *)
let integrated_source =
  {|
let employees = relation(
  tuple(1, 23, 4100), tuple(2, 38, 6500), tuple(3, 38, 5200),
  tuple(4, 55, 8000), tuple(5, 29, 4600), tuple(6, 38, 7100),
  tuple(7, 41, 6900), tuple(8, 23, 3900), tuple(9, 38, 4400),
  tuple(10, 31, 5100), tuple(11, 38, 6100), tuple(12, 44, 7300))

let is38(e: Tuple(Int, Int, Int)): Bool = e.2 == 38

let total_salary(r: Rel(Tuple(Int, Int, Int))): Int =
  var total := 0;
  foreach e in r do total := total + e.3 end;
  total

let query(): Int =
  total_salary(select e from e in employees where is38(e) end)

do
  mkindex(employees, 2);
  io.print_int(query())
end
|}

let test_integrated_query () =
  (* a fresh instance (main builds the index), optionally optimized in
     place: whether the body probes the index, and the steps of one call *)
  let run config =
    let program = Link.load integrated_source in
    let ctx = program.Link.ctx in
    (match Link.run_main program ~engine:`Machine () with
    | Eval.Done _, _ -> ()
    | o, _ -> Alcotest.failf "main: %a" Eval.pp_outcome o);
    let query = Link.function_oid program "query" in
    let uses_index =
      match config with
      | None -> false
      | Some config -> (
        match (Reflect.optimize_inplace ~config ctx query).Reflect.optimized_tml with
        | Term.Abs a ->
          Term.exists_app
            (fun node ->
              match node.Term.func with
              | Term.Prim "indexselect" -> true
              | _ -> false)
            a.Term.body
        | _ -> Alcotest.fail "expected abs")
    in
    match run_fn ctx (Value.Oidv query) [] with
    | Eval.Done (Value.Int 29300), steps -> uses_index, steps
    | o, _ -> Alcotest.failf "query: %a" Eval.pp_outcome o
  in
  let _, unoptimized = run None in
  let program_only, program_steps =
    run (Some { Reflect.default with Reflect.use_query_rules = false })
  in
  let integrated, integrated_steps = run (Some Reflect.default) in
  check tbool "program rules alone keep the scan" false program_only;
  check tbool "integrated optimizer probes the index" true integrated;
  (* each layer is necessary: a strict staircase *)
  check tbool
    (Printf.sprintf "steps %d > %d > %d" unoptimized program_steps integrated_steps)
    true
    (unoptimized > program_steps && program_steps > integrated_steps)

let test_errors () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let arr = Value.Heap.alloc heap (Value.Array [||]) in
  (match Reflect.optimize ctx arr with
  | exception Runtime.Fault _ -> ()
  | _ -> Alcotest.fail "optimizing a non-function must fault");
  match Reflect.optimize_value ctx (Value.Int 3) with
  | exception Runtime.Fault _ -> ()
  | _ -> Alcotest.fail "optimizing a non-reference must fault"

(* ------------------------------------------------------------------ *)
(* Re-optimization                                                      *)
(* ------------------------------------------------------------------ *)

let test_repeated_optimization () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let r1 = Reflect.optimize ctx abs_oid in
  let r2 = Reflect.optimize ctx abs_oid in
  check tbool "second optimization gives alpha-equal code" true
    (Term.alpha_equal_value r1.Reflect.optimized_tml r2.Reflect.optimized_tml);
  check tint "same rounds" r1.Reflect.report.Optimizer.rounds r2.Reflect.report.Optimizer.rounds;
  check tint "same final cost" r1.Reflect.report.Optimizer.cost_after
    r2.Reflect.report.Optimizer.cost_after;
  check tint "same inline count" r1.Reflect.inlined_calls r2.Reflect.inlined_calls

let test_reoptimize_sees_store_change () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let vec = Value.Heap.alloc heap (Value.Vector [| Value.Int 10; Value.Int 20 |]) in
  let tml =
    Sexp.parse_value
      (Printf.sprintf "proc(u ce! cc!) ([] <oid %d> 1 cont(t) (cc! t))" (Oid.to_int vec))
  in
  let f = Value.Heap.alloc_func heap ~name:"readvec" tml in
  let folded v (r : Reflect.result) =
    Term.exists_app
      (fun node -> List.exists (fun a -> Term.equal_value a (Term.int v)) node.Term.args)
      (match r.Reflect.optimized_tml with
      | Term.Abs a -> a.Term.body
      | _ -> Alcotest.fail "expected abs")
  in
  check tbool "vector read folded into the body" true (folded 20 (Reflect.optimize ctx f));
  Value.Heap.set heap vec (Value.Vector [| Value.Int 10; Value.Int 77 |]);
  check tbool "re-optimization folds the new value" true (folded 77 (Reflect.optimize ctx f))

(* ------------------------------------------------------------------ *)
(* Effect summaries                                                     *)
(* ------------------------------------------------------------------ *)

(* [w] calls [g] and drops its result, and [h] drops [w]'s.  The twelve
   prints after [w(n)] make a continuation big enough that the reducer
   keeps the [w] redex, so whether the call survives is up to
   a.effect-remove, which deletes it when [g]'s summary says pure. *)
let summary_program g_body =
  Printf.sprintf
    {|
let g(x: Int): Int = %s
let w(x: Int): Int = if x == 1 then g(x); 0 else 0 end
let h(n: Int): Int =
  w(n);
  %s
  5
|}
    g_body
    (String.concat " " (List.init 12 (fun i -> Printf.sprintf "io.print_int(%d);" i)))

(* pure and fault-free ([==] with an else branch), but too big for
   reflect.inline-oid *)
let big_pure_g =
  String.concat " " (List.init 24 (fun i -> Printf.sprintf "if x == %d then %d else" i (i + 1)))
  ^ " x" ^ String.concat "" (List.init 24 (fun _ -> " end"))

let effect_removed (r : Reflect.result) =
  List.exists
    (fun e -> String.equal e.Tml_obs.Provenance.pv_rule "a.effect-remove")
    r.Reflect.report.Optimizer.prov

let with_provenance f =
  let saved = !Tml_obs.Provenance.enabled in
  Tml_obs.Provenance.enabled := true;
  Fun.protect ~finally:(fun () -> Tml_obs.Provenance.enabled := saved) f

(* a pure g too big to inline: only its summary, once it is optimized,
   lets the call go *)
let test_callee_summary_removes_call () =
  with_provenance @@ fun () ->
  let c = Link.load (summary_program big_pure_g) in
  let hc = Link.function_oid c "h" in
  check tbool "an unoptimized g is an unknown callee" false
    (effect_removed (Reflect.optimize c.Link.ctx hc));
  ignore (Reflect.optimize_inplace c.Link.ctx (Link.function_oid c "g"));
  check tbool "the summary on g lets a.effect-remove fire" true
    (effect_removed (Reflect.optimize c.Link.ctx hc))

let test_two_heaps_one_oid () =
  with_provenance @@ fun () ->
  (* heap A: a pure g, optimized in place, lets the call go *)
  let a = Link.load (summary_program "x") in
  let ga = Link.function_oid a "g" in
  ignore (Reflect.optimize_inplace a.Link.ctx ga);
  check tbool "within heap A, a.effect-remove fires on h" true
    (effect_removed (Reflect.optimize_inplace a.Link.ctx (Link.function_oid a "h")));
  (* heap B: a g at the same OID that prints, too big for
     reflect.inline-oid; A's summary must not answer for it *)
  let line = String.concat "" (List.init 20 (fun i -> string_of_int (1 + i))) in
  let b =
    Link.load
      (summary_program
         (String.concat " " (List.init 20 (fun i -> Printf.sprintf "io.print_int(x + %d);" i))
          ^ " io.newline(); x"))
  in
  let gb = Link.function_oid b "g" in
  check tint "g has the same OID in both heaps" (Oid.to_int ga) (Oid.to_int gb);
  let ctx = b.Link.ctx in
  let hb = Link.function_oid b "h" in
  check tbool "within heap B, the call to g stays" false
    (effect_removed (Reflect.optimize_inplace ctx hb));
  Buffer.clear ctx.Runtime.out;
  (match Machine.run_proc ctx (Value.Oidv hb) [ Value.Int 1 ] with
  | Eval.Done (Value.Int 5) -> ()
  | o -> Alcotest.failf "h(1): %a" Eval.pp_outcome o);
  let out = Buffer.contents ctx.Runtime.out in
  check tbool "h(1) still prints g's line" true
    (String.length out >= String.length line && String.sub out 0 (String.length line) = line)

let () =
  Runtime.install ();
  Alcotest.run "tml_reflect"
    [
      ( "reflect",
        [
          Alcotest.test_case "section 4.1 optimizedAbs" `Quick test_optimized_abs;
          Alcotest.test_case "derived attributes cached" `Quick test_attrs_cached;
          Alcotest.test_case "PTML and memory paths agree" `Quick test_ptml_path;
          Alcotest.test_case "inline budget respected" `Quick test_inline_budget;
          Alcotest.test_case "store folds respect mutability" `Quick test_store_fold;
          Alcotest.test_case "in-place with recursion" `Quick test_inplace_recursive;
          Alcotest.test_case "improves a Stanford benchmark" `Quick
            test_optimize_all_improves_stanford;
          Alcotest.test_case "query-argument inlining (view expansion)" `Quick
            test_inline_query_arg;
          Alcotest.test_case "integrated program and query optimization" `Quick
            test_integrated_query;
          Alcotest.test_case "error handling" `Quick test_errors;
          Alcotest.test_case "repeated optimization agrees" `Quick test_repeated_optimization;
          Alcotest.test_case "re-optimization sees a store change" `Quick
            test_reoptimize_sees_store_change;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "an optimized callee's summary removes its call" `Quick
            test_callee_summary_removes_call;
          Alcotest.test_case "two heaps, one OID: effect summaries" `Quick
            test_two_heaps_one_oid;
        ] );
    ]
