(* The benchmark harness: regenerates every quantitative claim of the
   paper's evaluation (see DESIGN.md §2 and EXPERIMENTS.md).

     E1/E2  Stanford suite at the four optimization levels
            (static ≈ no significant speedup; dynamic ≥ 2×)
     E3     code size with PTML attached (≈ 2×)
     E4     reflective optimizedAbs (section 4.1 worked example)
     E5     merge-select fusion
     E6     trivial-exists
     E7     runtime index bindings (indexselect vs scan)
     E8     rewrite-engine micro-benchmarks (Bechamel)
     E9     integrated program + query optimization ablation
     E10    static-analysis overhead
     E11    persistent specialization cache (hit rate, cold-reopen
            latency)
     E12    observability overhead: tracing disabled / enabled (null
            sink) / provenance recording (docs/OBS.md)
     E14    tiered execution: bytecode machine vs compiled closure tier
     E15    rule dispatch: linear rule scan vs the head-indexed matcher
            of the declarative rule DSL (docs/RULES.md)

   Machine-readable results for E8/E10/E11/E12/E14/E15 are appended to
   BENCH_optimizer.json (override the path with TML_BENCH_JSON), with
   the run's metrics-registry snapshot as the final row.

   Set TML_BENCH_FAST=1 to skip the slowest benchmark (puzzle); run with
   --smoke for the quick E11+E12 mode used by the @bench-smoke alias;
   pass --trace FILE to record the whole run as a Chrome trace. *)

open Tml_core
open Tml_vm
open Tml_frontend
module Suite = Tml_stanford.Suite
module Reflect = Tml_reflect.Reflect

let fast_mode = Sys.getenv_opt "TML_BENCH_FAST" <> None
let smoke_mode = Array.exists (fun a -> a = "--smoke") Sys.argv

(* TML_BENCH_ONLY=E14 (comma-separated names) runs a subset — for
   iterating on one experiment without paying for the whole harness *)
let only =
  match Sys.getenv_opt "TML_BENCH_ONLY" with
  | None -> None
  | Some s -> Some (String.split_on_char ',' s)

(* every experiment runs inside a span; with --trace FILE the whole
   harness run becomes a Perfetto-loadable Chrome trace *)
let trace_path =
  let rec find = function
    | "--trace" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let () =
  match trace_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    ignore (Tml_obs.Trace.add_sink (Tml_obs.Trace.chrome_sink oc));
    Tml_obs.Trace.enabled := true;
    at_exit (fun () -> Tml_obs.Trace.clear_sinks ())

let experiment name f =
  let wanted = match only with None -> true | Some l -> List.mem name l in
  if wanted then Tml_obs.Trace.with_span ~cat:"bench" name f

(* machine-readable record collector: one JSON object per measurement,
   written out as a single array at exit *)
let json_rows : string list ref = ref []
let json_add fmt = Printf.ksprintf (fun s -> json_rows := s :: !json_rows) fmt

let write_json () =
  let path =
    Option.value (Sys.getenv_opt "TML_BENCH_JSON") ~default:"BENCH_optimizer.json"
  in
  (* the run's full metrics-registry snapshot rides along as the last row *)
  json_add "{\"experiment\":\"metrics\",\"snapshot\":%s}" (Tml_obs.Metrics.snapshot_json ());
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n  ";
      output_string oc (String.concat ",\n  " (List.rev !json_rows));
      output_string oc "\n]\n");
  Printf.printf "\nwrote %s (%d records)\n" path (List.length !json_rows)

let section title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n%!"

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* E1/E2: the Stanford suite                                            *)
(* ------------------------------------------------------------------ *)

let e1_e2 () =
  section
    "E1/E2 — Stanford suite: abstract instructions per run\n\
     (levels: unopt | static = local compile-time | dynamic = reflective\n\
     runtime | direct = primitives inlined by a closed compiler)";
  let names =
    if fast_mode then List.filter (fun n -> n <> "puzzle") Suite.all_names else Suite.all_names
  in
  Printf.printf "%-8s %12s %12s %12s %12s | %9s %9s %9s\n" "bench" "unopt" "static" "dynamic"
    "direct" "stat/un" "dyn/stat" "dyn/un";
  let ratios_static = ref [] and ratios_dyn_static = ref [] and ratios_dyn = ref [] in
  List.iter
    (fun name ->
      let results =
        List.map
          (fun level ->
            let r = Suite.run name level in
            (match r.Suite.outcome with
            | Eval.Done _ -> ()
            | o ->
              Format.printf "!! %s/%s failed: %a@." name (Suite.level_name level)
                Eval.pp_outcome o;
              exit 1);
            Suite.level_name level, r)
          Suite.levels
      in
      let outputs = List.map (fun (_, r) -> String.trim r.Suite.output) results in
      if not (List.for_all (fun o -> o = List.hd outputs) outputs) then begin
        Printf.printf "!! %s: outputs diverge across levels\n" name;
        exit 1
      end;
      let steps l = (List.assoc l results).Suite.steps in
      let f = float_of_int in
      let s_static = f (steps "unopt") /. f (steps "static") in
      let s_dyn_static = f (steps "static") /. f (steps "dynamic") in
      let s_dyn = f (steps "unopt") /. f (steps "dynamic") in
      ratios_static := s_static :: !ratios_static;
      ratios_dyn_static := s_dyn_static :: !ratios_dyn_static;
      ratios_dyn := s_dyn :: !ratios_dyn;
      Printf.printf "%-8s %12d %12d %12d %12d | %8.2fx %8.2fx %8.2fx\n%!" name (steps "unopt")
        (steps "static") (steps "dynamic") (steps "direct") s_static s_dyn_static s_dyn)
    names;
  Printf.printf "%-8s %12s %12s %12s %12s | %8.2fx %8.2fx %8.2fx\n" "geomean" "" "" "" ""
    (geomean !ratios_static) (geomean !ratios_dyn_static) (geomean !ratios_dyn);
  Printf.printf
    "\npaper: local/static optimization yields no significant speedup, while\n\
     dynamic optimization 'more than doubles the execution speed'.\n"

(* ------------------------------------------------------------------ *)
(* E3: code size                                                        *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3 — code size: executable code vs code + persistent TML (PTML)";
  Printf.printf "%-8s %6s %12s %12s %12s %8s\n" "bench" "funcs" "bytecode" "ptml" "total"
    "ratio";
  let total_code = ref 0 and total_ptml = ref 0 in
  List.iter
    (fun name ->
      let program = Suite.load name Suite.Unopt in
      let r = Suite.code_size program in
      total_code := !total_code + r.Suite.bytecode_bytes;
      total_ptml := !total_ptml + r.Suite.ptml_bytes;
      Printf.printf "%-8s %6d %12d %12d %12d %7.2fx\n%!" name r.Suite.functions
        r.Suite.bytecode_bytes r.Suite.ptml_bytes
        (r.Suite.bytecode_bytes + r.Suite.ptml_bytes)
        (float_of_int (r.Suite.bytecode_bytes + r.Suite.ptml_bytes)
        /. float_of_int r.Suite.bytecode_bytes))
    Suite.all_names;
  Printf.printf "%-8s %6s %12d %12d %12d %7.2fx\n" "total" "" !total_code !total_ptml
    (!total_code + !total_ptml)
    (float_of_int (!total_code + !total_ptml) /. float_of_int !total_code);
  Printf.printf "\npaper: 'the code size doubles' (1.2MB vs 600kB for the Tycoon system).\n"

(* ------------------------------------------------------------------ *)
(* E4: reflective optimizedAbs                                          *)
(* ------------------------------------------------------------------ *)

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

let e4 () =
  section "E4 — reflect.optimize(abs): optimization across abstraction barriers (§4.1)";
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let mk = Value.Oidv (Link.function_oid program "complex.mk") in
  let c =
    match Machine.run_proc ctx mk [ Value.Real 3.0; Value.Real 4.0 ] with
    | Eval.Done v -> v
    | _ -> failwith "mk failed"
  in
  let run fn =
    let before = ctx.Runtime.steps in
    match Machine.run_proc ctx fn [ c ] with
    | Eval.Done _ -> ctx.Runtime.steps - before
    | o -> Format.kasprintf failwith "cabs failed: %a" Eval.pp_outcome o
  in
  let abs_oid = Link.function_oid program "cabs" in
  let before = run (Value.Oidv abs_oid) in
  let result = Reflect.optimize ctx abs_oid in
  let after = run (Value.Oidv result.Reflect.oid) in
  Printf.printf "%-22s %10s %10s %9s %9s\n" "" "instrs" "static" "size" "inlined";
  Printf.printf "%-22s %10d %10d %9d\n" "cabs (linked)" before
    result.Reflect.report.Optimizer.cost_before result.Reflect.report.Optimizer.size_before;
  Printf.printf "%-22s %10d %10d %9d %9d\n" "optimizedAbs" after
    result.Reflect.report.Optimizer.cost_after result.Reflect.report.Optimizer.size_after
    result.Reflect.inlined_calls;
  Printf.printf "speedup: %.2fx\n" (float_of_int before /. float_of_int after);
  Printf.printf
    "\npaper: the reflective optimizer inlines complex.x / complex.y across the\n\
     module barrier, yielding code equivalent to sqrt(c.x*c.x + c.y*c.y).\n"

(* ------------------------------------------------------------------ *)
(* Query experiment helpers                                             *)
(* ------------------------------------------------------------------ *)

let make_employees ctx n =
  let rows =
    List.init n (fun i ->
        [|
          Value.Int (i + 1);
          Value.Int (20 + (i * 7 mod 40));
          Value.Int (3000 + (i * 137 mod 5000));
        |])
  in
  Tml_query.Rel.create ctx ~name:"employees" rows

let run_query ctx term bindings =
  let frees = Ident.Set.elements (Term.free_vars_app term) in
  let env =
    List.fold_left
      (fun env id ->
        match List.assoc_opt id.Ident.name bindings with
        | Some v -> Ident.Map.add id v env
        | None -> env)
      Ident.Map.empty frees
  in
  let env =
    List.fold_left
      (fun env id ->
        match id.Ident.name with
        | "halt_ok" -> Ident.Map.add id (Value.Halt true) env
        | "halt_err" -> Ident.Map.add id (Value.Halt false) env
        | _ -> env)
      env frees
  in
  let before = ctx.Runtime.steps in
  let outcome = Eval.run_app ctx ~env term in
  outcome, ctx.Runtime.steps - before

let field_pred ~tag ~field ~op ~value =
  Printf.sprintf
    "proc(x%s pce%s! pcc%s!) ([] x%s %d cont(t%s) (%s t%s %d cont() (pcc%s! true) cont() \
     (pcc%s! false)))"
    tag tag tag tag field tag op tag value tag tag

(* ------------------------------------------------------------------ *)
(* E5: merge-select                                                     *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 — merge-select: σp(σq(R)) ≡ σp∧q(R) (§4.2)";
  Printf.printf "%-10s %12s %12s %9s %9s\n" "|R|" "chained" "merged" "speedup" "agree";
  List.iter
    (fun n ->
      let ctx = Runtime.create (Value.Heap.create ()) in
      Tml_query.Qprims.install ();
      let rel = make_employees ctx n in
      let src =
        Printf.sprintf
          "(select %s r halt_err! cont(tmp) (select %s tmp halt_err! cont(out) (count out \
           cont(c) (halt_ok! c))))"
          (field_pred ~tag:"q" ~field:1 ~op:">=" ~value:30)
          (field_pred ~tag:"p" ~field:2 ~op:"<" ~value:5500)
      in
      let chained = Sexp.parse_app src in
      let merged, _ = Tml_query.Qopt.optimize_static chained in
      let o1, s1 = run_query ctx chained [ "r", Value.Oidv rel ] in
      let o2, s2 = run_query ctx merged [ "r", Value.Oidv rel ] in
      let agree =
        match o1, o2 with
        | Eval.Done v1, Eval.Done v2 -> Value.identical v1 v2
        | _ -> false
      in
      Printf.printf "%-10d %12d %12d %8.2fx %9b\n%!" n s1 s2
        (float_of_int s1 /. float_of_int s2)
        agree)
    [ 10; 100; 1000 ];
  Printf.printf "\nfused selection avoids materializing the intermediate relation.\n"

(* ------------------------------------------------------------------ *)
(* E6: trivial-exists                                                   *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 — trivial-exists: ∃x∈R: p ≡ p ∧ R≠∅ when x ∉ fv(p) (§4.2)";
  Printf.printf "%-10s %12s %12s %9s\n" "|R|" "original" "rewritten" "speedup";
  List.iter
    (fun n ->
      let ctx = Runtime.create (Value.Heap.create ()) in
      Tml_query.Qprims.install ();
      let rel = make_employees ctx n in
      let src =
        "(exists proc(x pce! pcc!) (> y 0 cont() (pcc! true) cont() (pcc! false)) r \
         halt_err! cont(b) (halt_ok! b))"
      in
      let original = Sexp.parse_app src in
      let rewritten = Rewrite.reduce_app ~rules:Tml_query.Qopt.static_rules original in
      let bindings = [ "r", Value.Oidv rel; "y", Value.Int (-1) ] in
      let o1, s1 = run_query ctx original bindings in
      let o2, s2 = run_query ctx rewritten bindings in
      (match o1, o2 with
      | Eval.Done v1, Eval.Done v2 when Value.identical v1 v2 -> ()
      | _ -> failwith "E6: results diverge");
      Printf.printf "%-10d %12d %12d %8.2fx\n%!" n s1 s2 (float_of_int s1 /. float_of_int s2))
    [ 10; 100; 1000 ];
  Printf.printf
    "\nO(|R|) predicate evaluations become one evaluation plus an emptiness test:\n\
     the speedup grows linearly with |R|.\n"

(* ------------------------------------------------------------------ *)
(* E7: runtime index bindings                                           *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 — index-select: query optimization needs runtime bindings (§4.2)";
  Printf.printf "%-10s %12s %12s %9s\n" "|R|" "scan" "indexed" "speedup";
  List.iter
    (fun n ->
      let ctx = Runtime.create (Value.Heap.create ()) in
      Tml_query.Qprims.install ();
      let rel = make_employees ctx n in
      let src =
        Printf.sprintf "(select %s <oid %d> halt_err! cont(out) (count out cont(c) (halt_ok! \
         c)))"
          (field_pred ~tag:"i" ~field:1 ~op:"==" ~value:27)
          (Oid.to_int rel)
      in
      let scan = Sexp.parse_app src in
      (* without the index, the rule does not fire — rewriting is a no-op *)
      let not_rewritten = Rewrite.reduce_app ~rules:(Tml_query.Qopt.runtime_rules ctx) scan in
      let o1, s1 = run_query ctx not_rewritten [] in
      (* build the index: now the same rewrite produces an indexselect *)
      Tml_query.Rel.add_index ctx rel 1;
      let rewritten = Rewrite.reduce_app ~rules:(Tml_query.Qopt.runtime_rules ctx) scan in
      let o2, s2 = run_query ctx rewritten [] in
      (match o1, o2 with
      | Eval.Done v1, Eval.Done v2 when Value.identical v1 v2 -> ()
      | _ -> failwith "E7: results diverge");
      Printf.printf "%-10d %12d %12d %8.2fx\n%!" n s1 s2 (float_of_int s1 /. float_of_int s2))
    [ 10; 100; 1000 ];
  Printf.printf
    "\nthe rewrite fires only when the store, at runtime, carries the index —\n\
     'we have to delay query optimizations until runtime'.\n"

(* ------------------------------------------------------------------ *)
(* E9: integrated program and query optimization                        *)
(* ------------------------------------------------------------------ *)

let e9_source =
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

let e9 () =
  section
    "E9 — integrated program + query optimization: the program optimizer\n\
     inlines the user predicate, the query optimizer then recognizes the\n\
     field-equality shape and uses the runtime index (figure 4)";
  let variants =
    [
      "no optimization", None;
      ( "program rules only",
        Some { Reflect.default with Reflect.use_query_rules = false } );
      "integrated (full)", Some Reflect.default;
    ]
  in
  Printf.printf "%-22s %10s %14s\n" "configuration" "instrs" "uses index?";
  List.iter
    (fun (label, config) ->
      let program = Link.load e9_source in
      let ctx = program.Link.ctx in
      (* main builds the index first *)
      let outcome, _ = Link.run_main program ~engine:`Machine () in
      (match outcome with
      | Eval.Done _ -> ()
      | o -> Format.kasprintf failwith "E9 main failed: %a" Eval.pp_outcome o);
      let query_oid = Link.function_oid program "query" in
      let uses_index = ref false in
      (match config with
      | None -> ()
      | Some config ->
        let result = Reflect.optimize_inplace ~config ctx query_oid in
        uses_index :=
          (match result.Reflect.optimized_tml with
          | Term.Abs a ->
            Term.exists_app
              (fun node ->
                match node.Term.func with
                | Term.Prim "indexselect" -> true
                | _ -> false)
              a.Term.body
          | _ -> false));
      let before = ctx.Runtime.steps in
      (match Machine.run_proc ctx (Value.Oidv query_oid) [] with
      | Eval.Done (Value.Int 29300) -> ()
      | Eval.Done v -> Format.kasprintf failwith "E9 wrong result %a" Value.pp v
      | o -> Format.kasprintf failwith "E9 query failed: %a" Eval.pp_outcome o);
      Printf.printf "%-22s %10d %14b\n%!" label (ctx.Runtime.steps - before) !uses_index)
    variants

(* ------------------------------------------------------------------ *)
(* E8: rewrite-engine micro-benchmarks (Bechamel)                       *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 — rewrite engine micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  Runtime.install ();
  let rng = Random.State.make [| 2025 |] in
  let small = Gen.proc2 rng ~size:20 in
  let medium = Gen.proc2 rng ~size:80 in
  let large = Gen.proc2 rng ~size:300 in
  let ptml_bytes = Tml_store.Ptml.encode_value large in
  let fib_src =
    "let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end do \
     io.print_int(fib(10)) end"
  in
  let fib_program = Link.load fib_src in
  Reflect.optimize_all fib_program.Link.ctx (Link.all_function_oids fib_program);
  let tests =
    Test.make_grouped ~name:"tml"
      [
        Test.make ~name:"reduce/small" (Staged.stage (fun () -> Rewrite.reduce_value small));
        Test.make ~name:"reduce/medium" (Staged.stage (fun () -> Rewrite.reduce_value medium));
        Test.make ~name:"reduce/large" (Staged.stage (fun () -> Rewrite.reduce_value large));
        Test.make ~name:"optimize-o2/medium"
          (Staged.stage (fun () -> Optimizer.optimize_value medium));
        Test.make ~name:"optimize-o3/medium"
          (Staged.stage (fun () -> Optimizer.optimize_value ~config:Optimizer.o3 medium));
        Test.make ~name:"ptml-encode/large"
          (Staged.stage (fun () -> Tml_store.Ptml.encode_value large));
        Test.make ~name:"ptml-decode/large"
          (Staged.stage (fun () -> Tml_store.Ptml.decode_value ptml_bytes));
        Test.make ~name:"machine/fib10-dynamic"
          (Staged.stage (fun () -> Link.run_main fib_program ~engine:`Machine ()));
        Test.make ~name:"tree/fib10-dynamic"
          (Staged.stage (fun () -> Link.run_main fib_program ~engine:`Tree ()));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Printf.printf "%-32s %14s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
        Printf.printf "%-32s %14.1f\n" name est;
        json_add "{\"experiment\":\"E8\",\"benchmark\":\"%s\",\"ns_per_run\":%.1f}" name est
      | _ -> Printf.printf "%-32s %14s\n" name "n/a")
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* Ablation: the design choices DESIGN.md calls out                     *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section
    "Ablation — optimizer configurations on the Stanford subset\n\
     (O1 = reduction only, O2 = +inlining, O3 = +loop unrolling)";
  let names = [ "perm"; "queens"; "intmm"; "tree" ] in
  Printf.printf "%-8s %12s %12s %12s\n" "bench" "dynamic-O1" "dynamic-O2" "dynamic-O3";
  List.iter
    (fun name ->
      let steps config =
        let program = Link.load (Suite.source name) in
        Reflect.optimize_all
          ~config:{ Reflect.default with Reflect.optimizer = config }
          program.Link.ctx (Link.all_function_oids program);
        let outcome, steps = Link.run_main program ~engine:`Machine () in
        (match outcome with
        | Eval.Done _ -> ()
        | o -> Format.kasprintf failwith "ablation failed: %a" Eval.pp_outcome o);
        steps
      in
      Printf.printf "%-8s %12d %12d %12d\n%!" name (steps Optimizer.o1) (steps Optimizer.o2)
        (steps Optimizer.o3))
    names

(* ------------------------------------------------------------------ *)
(* E10: static-analysis overhead (JSON)                                 *)
(* ------------------------------------------------------------------ *)

(* Single-number wall timing: warm up once, then repeat the thunk until it
   accumulates >= [budget] seconds and report ns/run.  With [metric] the
   result is also observed into the metrics registry, so the registry
   snapshot appended to the JSON carries every timing of the run. *)
let time_ns ?metric ?(budget = 0.05) f =
  ignore (f ());
  let rec calibrate n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= budget then dt /. float_of_int n *. 1e9 else calibrate (n * 4)
  in
  let ns = calibrate 1 in
  (match metric with
  | Some name -> Tml_obs.Metrics.observe (Tml_obs.Metrics.histogram name) ns
  | None -> ());
  ns

let e10 () =
  section
    "E10 — static-analysis overhead: analysis-pass and tmllint timings\n\
     (JSON, one object per line, for the perf trajectory)";
  let rng = Random.State.make [| 2025 |] in
  let medium = Gen.proc2 rng ~size:80 in
  List.iter
    (fun (name, config) ->
      let plain = time_ns (fun () -> Optimizer.optimize_value ~config medium) in
      let with_analysis =
        time_ns (fun () ->
            Optimizer.optimize_value ~config:(Tml_analysis.Bridge.with_analysis config) medium)
      in
      Printf.printf
        "{\"experiment\":\"analysis-overhead\",\"level\":\"%s\",\"plain_ns\":%.1f,\"analysis_ns\":%.1f,\"overhead\":%.3f}\n%!"
        name plain with_analysis (with_analysis /. plain);
      json_add
        "{\"experiment\":\"E10\",\"level\":\"%s\",\"plain_ns\":%.1f,\"analysis_ns\":%.1f,\"overhead\":%.3f}"
        name plain with_analysis (with_analysis /. plain))
    [ "O1", Optimizer.o1; "O2", Optimizer.o2; "O3", Optimizer.o3 ];
  let summarize_ns =
    time_ns (fun () ->
        match medium with
        | Term.Abs a -> Tml_analysis.Infer.summarize Tml_analysis.Infer.empty_env a
        | _ -> assert false)
  in
  Printf.printf
    "{\"experiment\":\"analysis-pass\",\"target\":\"gen/proc2-80\",\"summarize_ns\":%.1f}\n%!"
    summarize_ns;
  json_add "{\"experiment\":\"E10\",\"target\":\"gen/proc2-80\",\"summarize_ns\":%.1f}"
    summarize_ns;
  (* tmllint wall time: the binary lives next to this benchmark inside
     _build; the example sources sit at the repo root. *)
  let exe_dir = Filename.dirname Sys.executable_name in
  let find candidates = List.find_opt Sys.file_exists candidates in
  let tmllint =
    find
      [ Filename.concat exe_dir "../bin/tmllint.exe"; "_build/default/bin/tmllint.exe" ]
  in
  let example name =
    find
      [
        Filename.concat "examples/tl" name;
        Filename.concat exe_dir ("../../../examples/tl/" ^ name);
      ]
  in
  match tmllint with
  | None -> Printf.printf "{\"experiment\":\"tmllint\",\"skipped\":\"binary not found\"}\n%!"
  | Some lint ->
    List.iter
      (fun name ->
        match example name with
        | None ->
          Printf.printf
            "{\"experiment\":\"tmllint\",\"target\":\"%s\",\"skipped\":\"source not found\"}\n%!"
            name
        | Some path ->
          let cmd =
            Printf.sprintf "%s --stdlib %s > /dev/null" (Filename.quote lint)
              (Filename.quote path)
          in
          let best = ref infinity in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            if Sys.command cmd <> 0 then failwith ("tmllint failed on " ^ path);
            let dt = Unix.gettimeofday () -. t0 in
            if dt < !best then best := dt
          done;
          Printf.printf "{\"experiment\":\"tmllint\",\"target\":\"%s\",\"wall_ms\":%.2f}\n%!"
            name (!best *. 1e3))
      [ "bank.tl"; "inventory.tl"; "queens.tl" ]

(* ------------------------------------------------------------------ *)
(* E11: persistent specialization cache                                 *)
(* ------------------------------------------------------------------ *)

(* E11b — specialization-cache hit rate on a repeated-Reflect.optimize
   workload (the paper's 'repeated optimizations of (shared) functions'). *)
let e11_hit_rate ~reps =
  Speccache.clear ();
  let program = Link.load e9_source in
  let ctx = program.Link.ctx in
  (match Link.run_main program ~engine:`Machine () with
  | Eval.Done _, _ -> ()
  | o, _ -> Format.kasprintf failwith "E11 main failed: %a" Eval.pp_outcome o);
  let oids = Link.all_function_oids program in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    List.iter (fun oid -> ignore (Reflect.optimize ctx oid)) oids
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let sc = Speccache.stats () in
  let total = sc.Speccache.hits + sc.Speccache.misses in
  let rate = 100.0 *. float_of_int sc.Speccache.hits /. float_of_int (max 1 total) in
  Printf.printf
    "\nE11b — speccache on %d x Reflect.optimize of %d functions (%.1f ms total):\n"
    reps (List.length oids) (dt *. 1e3);
  Printf.printf "  %d hits / %d lookups = %.1f%% hit rate %s\n" sc.Speccache.hits total rate
    (if rate >= 90.0 then "(>= 90%: PASS)" else "(< 90%: FAIL)");
  json_add
    "{\"experiment\":\"E11\",\"metric\":\"speccache-hit-rate\",\"reps\":%d,\"functions\":%d,\"hits\":%d,\"lookups\":%d,\"hit_rate\":%.3f}"
    reps (List.length oids) sc.Speccache.hits total (rate /. 100.0);
  Speccache.clear ()

(* E11c — cold-reopen latency: a session whose specializations were
   persisted re-optimizes from the cache; a fresh session pays the full
   optimizer.  (The cache travels inside the durable store image.) *)
let e11_reopen () =
  let defs =
    [
      "let e11a(x: Int): Int = x * x + 2 * x + 1";
      "let e11b(x: Int): Int = e11a(x) + e11a(x + 1)";
      "let e11c(x: Int): Int = e11b(x) * e11b(x)";
    ]
  in
  let build () =
    let s = Repl.create () in
    List.iter (fun d -> ignore (Repl.feed s d)) defs;
    let oids =
      List.filter_map
        (fun d ->
          let name = String.sub d 4 4 in
          Repl.function_oid s name)
        defs
    in
    s, oids
  in
  Speccache.clear ();
  let path = Filename.temp_file "tmlbench" ".store" in
  let s, oids = build () in
  List.iter (fun oid -> ignore (Reflect.optimize (Repl.ctx s) oid)) oids;
  let pstore = Pstore.attach ~fsync:false path (Repl.ctx s).Runtime.heap in
  ignore (Repl.persist s pstore);
  Pstore.close pstore;
  (* cold process: restore the image and re-specialize from the cache *)
  Speccache.clear ();
  let t0 = Unix.gettimeofday () in
  let pstore2 = Pstore.open_ ~fsync:false path in
  let s2 = Repl.restore pstore2 in
  let oids2 = List.filter_map (fun n -> Repl.function_oid s2 n) [ "e11a"; "e11b"; "e11c" ] in
  List.iter (fun oid -> ignore (Reflect.optimize (Repl.ctx s2) oid)) oids2;
  let cached_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let hits = (Speccache.stats ()).Speccache.hits in
  Pstore.close pstore2;
  Sys.remove path;
  (* the same re-specialization without the persisted cache *)
  Speccache.clear ();
  let s3, oids3 = build () in
  let no_cache = { Reflect.default with Reflect.use_speccache = false } in
  let t1 = Unix.gettimeofday () in
  List.iter
    (fun oid -> ignore (Reflect.optimize ~config:no_cache (Repl.ctx s3) oid))
    oids3;
  let fresh_ms = (Unix.gettimeofday () -. t1) *. 1e3 in
  Printf.printf
    "\nE11c — cold-reopen re-specialization of %d session functions:\n\
    \  from persisted cache: %.2f ms (open + restore + optimize, %d cache hits)\n\
    \  fresh optimizer run:  %.2f ms (optimize only, no cache)\n"
    (List.length oids2) cached_ms hits fresh_ms;
  json_add
    "{\"experiment\":\"E11\",\"metric\":\"cold-reopen\",\"functions\":%d,\"cached_ms\":%.2f,\"cache_hits\":%d,\"fresh_ms\":%.2f}"
    (List.length oids2) cached_ms hits fresh_ms;
  Speccache.clear ()

(* ------------------------------------------------------------------ *)
(* E12: observability overhead                                          *)
(* ------------------------------------------------------------------ *)

(* The acceptance claim of docs/OBS.md: the tracing hooks cost nothing
   measurable while disabled (one ref read each) and stay under a few
   percent with tracing on into a null sink; provenance recording adds a
   small allocation per rewrite.  Two workloads: the optimizer (the
   densest event source: a rule-fire event per rewrite) and a dynamic
   fib run on the abstract machine (one vm_run event per call).  Results
   are printed as ratios and recorded in the JSON; thresholds are
   reported PASS/FAIL but never abort, since wall times on a loaded
   machine are noisy. *)
let e12 ~budget () =
  section
    "E12 — observability overhead: tracing disabled / enabled (null sink) /\n\
     provenance recording, on the optimizer and the abstract machine";
  Runtime.install ();
  let rng = Random.State.make [| 2025 |] in
  let medium = Gen.proc2 rng ~size:80 in
  let fib_src =
    "let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end do \
     io.print_int(fib(10)) end"
  in
  let fib_program = Link.load fib_src in
  (* the machine row times the interpreter's hooks: with the tier on,
     fib's unit would heat up and run compiled mid-measurement *)
  let saved_tier = !Tierup.enabled in
  Tierup.enabled := false;
  let workloads =
    [
      "optimize-o2/medium", (fun () -> ignore (Optimizer.optimize_value medium));
      "machine/fib10", (fun () -> ignore (Link.run_main fib_program ~engine:`Machine ()));
    ]
  in
  Printf.printf "%-20s %12s %9s %9s %9s\n" "workload" "base ns" "disabled" "enabled"
    "+prov";
  List.iter
    (fun (name, run) ->
      let saved_trace = !Tml_obs.Trace.enabled in
      Tml_obs.Trace.enabled := false;
      let base = time_ns ~budget run in
      let disabled = time_ns ~budget run in
      let id = Tml_obs.Trace.add_sink (Tml_obs.Trace.null_sink ()) in
      Tml_obs.Trace.enabled := true;
      let enabled = time_ns ~budget run in
      Tml_obs.Provenance.enabled := true;
      let prov = time_ns ~budget run in
      Tml_obs.Provenance.enabled := false;
      Tml_obs.Trace.enabled := saved_trace;
      Tml_obs.Trace.remove_sink id;
      let r x = x /. base in
      Printf.printf "%-20s %12.1f %8.3fx %8.3fx %8.3fx  %s\n%!" name base (r disabled)
        (r enabled) (r prov)
        (if r disabled <= 1.05 && r enabled <= 1.5 then "(PASS)" else "(FAIL)");
      json_add
        "{\"experiment\":\"E12\",\"workload\":\"%s\",\"base_ns\":%.1f,\"disabled_ratio\":%.3f,\"enabled_null_sink_ratio\":%.3f,\"provenance_ratio\":%.3f}"
        name base (r disabled) (r enabled) (r prov))
    workloads;
  Tierup.enabled := saved_tier;
  Printf.printf
    "\ndisabled hooks are a single ref read; the enabled ratio buys every\n\
     rule-fire, cache and store event of the run (see docs/OBS.md).\n"

(* ------------------------------------------------------------------ *)
(* E14: tiered execution — promotion to the compiled closure tier       *)
(* ------------------------------------------------------------------ *)

(* The bytecode machine vs the same programs force-promoted to the
   compiled closure tier (lib/vm/jit.ml), on the Stanford suite at the
   dynamic level.  The tier charges exactly the machine's abstract
   instruction costs, so the steps column is asserted equal between the
   two engines and the speedup is pure wall-clock: interpretation
   dispatch traded for direct OCaml closure calls. *)
let e14 () =
  section
    "E14 — tiered execution: bytecode machine vs compiled closure tier\n\
     (Stanford suite, dynamic level; identical abstract steps asserted,\n\
     speedup is pure wall-clock)";
  Runtime.install ();
  let budget = if fast_mode then 0.01 else 0.05 in
  let names =
    if fast_mode then List.filter (fun n -> n <> "puzzle") Suite.all_names
    else Suite.all_names
  in
  Printf.printf "%-8s %12s %14s %14s %9s\n" "bench" "steps" "machine ns" "tiered ns"
    "speedup";
  let ratios = ref [] in
  List.iter
    (fun name ->
      (* One fresh instance per engine, treated identically except for
         promotion, so any state drift across repeated runs is the same
         on both sides.  Tier state lives on each instance's own code
         units, so the two instances cannot disturb each other. *)
      let prog_m = Suite.load name Suite.Dynamic in
      let prog_t = Suite.load name Suite.Dynamic in
      let rm = Suite.run_loaded ~engine:`Machine prog_m in
      let promoted =
        List.fold_left
          (fun n oid -> if Tierup.force_promote prog_t.Link.ctx oid then n + 1 else n)
          0 (Link.all_function_oids prog_t)
      in
      if promoted = 0 then failwith (name ^ ": no function promoted");
      let runs0 = (Tierup.stats ()).Tierup.runs in
      let rt = Suite.run_loaded ~engine:`Machine prog_t in
      (match rm.Suite.outcome, rt.Suite.outcome with
      | Eval.Done _, Eval.Done _ -> ()
      | _ -> failwith (name ^ ": a run failed"));
      if (Tierup.stats ()).Tierup.runs <= runs0 then
        failwith (name ^ ": promoted functions never entered the tier");
      if not (String.equal rm.Suite.output rt.Suite.output) then
        failwith (name ^ ": tiered output diverges from the machine");
      if rm.Suite.steps <> rt.Suite.steps then
        Printf.ksprintf failwith "%s: tiered charged %d steps, machine charged %d" name
          rt.Suite.steps rm.Suite.steps;
      let tiered_ns =
        time_ns ~metric:("bench.tier_jit_ns." ^ name) ~budget (fun () ->
            Suite.run_loaded ~engine:`Machine prog_t)
      in
      let machine_ns =
        time_ns ~metric:("bench.tier_machine_ns." ^ name) ~budget (fun () ->
            Suite.run_loaded ~engine:`Machine prog_m)
      in
      let speedup = machine_ns /. tiered_ns in
      ratios := speedup :: !ratios;
      Printf.printf "%-8s %12d %14.0f %14.0f %8.2fx\n%!" name rm.Suite.steps machine_ns
        tiered_ns speedup;
      json_add
        "{\"experiment\":\"E14\",\"bench\":\"%s\",\"steps\":%d,\"promoted\":%d,\"machine_ns\":%.1f,\"tiered_ns\":%.1f,\"speedup\":%.2f}"
        name rm.Suite.steps promoted machine_ns tiered_ns speedup)
    names;
  let g = geomean !ratios in
  let over5 = List.length (List.filter (fun r -> r >= 5.0) !ratios) in
  Printf.printf "%-8s %12s %14s %14s %8.2fx\n" "geomean" "" "" "" g;
  Printf.printf "%d/%d benchmarks at >= 5x %s\n" over5 (List.length !ratios)
    (if over5 >= 2 then "(target >= 2: PASS)" else "(target >= 2: FAIL)");
  json_add "{\"experiment\":\"E14\",\"metric\":\"geomean\",\"speedup\":%.2f,\"over_5x\":%d}" g
    over5

(* ------------------------------------------------------------------ *)
(* E15: rule dispatch — linear scan vs head-indexed matcher             *)
(* ------------------------------------------------------------------ *)

(* Pure lookup cost of the declarative rule set (lib/rules): sweep a
   corpus of application nodes and ask, at each one, which rule fires —
   once through the historical linear scan (try every compiled rule in
   order until one answers) and once through the discrimination-style
   head index (one root inspection + one bucket probe).  Both arms call
   the same compiled closures on the same nodes, so the delta is pure
   dispatch.  That the two dispatchers are observably equivalent (same
   fires, same provenance, same normal forms) is the @rules property
   suite's job; this experiment prices the equivalence.  A full
   end-to-end optimization is timed as well, informationally: dispatch
   is one slice of a whole optimizer round. *)
let e15 ~budget () =
  section
    "E15 — rule dispatch: linear scan vs head-indexed matcher\n\
     (pure lookup cost over application-node corpora; acceptance >= 1.5x)";
  Runtime.install ();
  Tml_query.Qprims.install ();
  let rules = Tml_query.Qrewrite.declarative_rules in
  let linear = List.map Tml_rules.Dsl.to_rewrite rules in
  let indexed = Tml_rules.Index.compile rules in
  let nodes_of_value v =
    let acc = ref [] in
    (match v with
    | Term.Abs f -> Term.iter_apps (fun a -> acc := a :: !acc) f.Term.body
    | _ -> ());
    !acc
  in
  (* corpus 1: generated query pipelines — the node mix a real
     optimization sweeps (query prims among continuations, arithmetic,
     β-redexes) *)
  let pipeline_nodes =
    List.concat_map
      (fun seed -> nodes_of_value (Tml_check.Tgen.query_case_of_seed seed).Tml_check.Tgen.qproc)
      (List.init 20 (fun i -> i))
  in
  (* corpus 2: redex-dense — hand-written fusable pipelines where the
     scan pays for full matches, not just head rejections *)
  let redex_nodes =
    let pred field value =
      Printf.sprintf
        "proc(x pce%d! pcc%d!) ([] x %d cont(t%d) (== t%d %d cont() (pcc%d! true) cont() \
         (pcc%d! false)))"
        field field field field field value field field
    in
    let srcs =
      [
        Printf.sprintf "(select %s r ce! cont(tmp) (select %s tmp ce! k!))" (pred 0 1)
          (pred 1 2);
        "(select proc(x pce! pcc!) (pcc! true) r ce! cont(s) (count s k!))";
        "(distinct r ce! cont(tmp) (distinct tmp ce! k!))";
        Printf.sprintf "(union a b ce! cont(tmp) (select %s tmp ce! k!))" (pred 2 7);
      ]
    in
    let nodes =
      List.concat_map
        (fun src ->
          let a = Sexp.parse_app src in
          a :: nodes_of_value (Term.abs [] a))
        srcs
    in
    List.concat (List.init 40 (fun _ -> nodes))
  in
  let lookup_linear a =
    let rec go = function
      | [] -> ()
      | r :: rest -> ( match r a with Some _ -> () | None -> go rest)
    in
    go linear
  in
  let lookup_indexed a = ignore (indexed a) in
  Printf.printf "%-18s %8s %14s %14s %9s\n" "corpus" "nodes" "linear ns" "indexed ns"
    "speedup";
  let ratios = ref [] in
  List.iter
    (fun (name, nodes) ->
      let n = List.length nodes in
      let lin = time_ns ~budget (fun () -> List.iter lookup_linear nodes) in
      let idx = time_ns ~budget (fun () -> List.iter lookup_indexed nodes) in
      let speedup = lin /. idx in
      ratios := speedup :: !ratios;
      Printf.printf "%-18s %8d %14.0f %14.0f %8.2fx\n%!" name n lin idx speedup;
      json_add
        "{\"experiment\":\"E15\",\"corpus\":\"%s\",\"nodes\":%d,\"linear_ns\":%.1f,\"indexed_ns\":%.1f,\"speedup\":%.2f}"
        name n lin idx speedup)
    [ "query-pipelines", pipeline_nodes; "redex-dense", redex_nodes ];
  let g = geomean !ratios in
  Printf.printf "rule-lookup speedup geomean: %.2fx (>= 1.5x: %s)\n" g
    (if g >= 1.5 then "PASS" else "FAIL");
  json_add "{\"experiment\":\"E15\",\"metric\":\"lookup-speedup-geomean\",\"speedup\":%.2f}" g;
  (* shape of the compiled table over the full shipped rule set: how many
     prim buckets split further on argument count (docs/RULES.md) *)
  let ss = Tml_rules.Index.split_stats Tml_query.Qopt.rule_descriptors in
  Printf.printf
    "arity split (full rule set): %d prim buckets, %d arity-split, %d slots \
     (%d exact-arity rule entries, %d arity-agnostic)\n"
    ss.Tml_rules.Index.s_prim_buckets ss.Tml_rules.Index.s_arity_split
    ss.Tml_rules.Index.s_arity_slots ss.Tml_rules.Index.s_exact_rules
    ss.Tml_rules.Index.s_generic_rules;
  json_add
    "{\"experiment\":\"E15\",\"metric\":\"arity-split\",\"prim_buckets\":%d,\"split_buckets\":%d,\"arity_slots\":%d,\"exact_rules\":%d,\"generic_rules\":%d}"
    ss.Tml_rules.Index.s_prim_buckets ss.Tml_rules.Index.s_arity_split
    ss.Tml_rules.Index.s_arity_slots ss.Tml_rules.Index.s_exact_rules
    ss.Tml_rules.Index.s_generic_rules;
  (* end-to-end: a whole reduction pass (rule firing included) over the
     fusable pipeline — the optimizer's hot loop with each dispatcher.
     Informational: dispatch is one slice of a reduction pass. *)
  let fused =
    Sexp.parse_app
      (Printf.sprintf "(select %s r ce! cont(tmp) (select %s tmp ce! k!))"
         "proc(x pcea! pcca!) ([] x 0 cont(ta) (== ta 1 cont() (pcca! true) cont() (pcca! \
          false)))"
         "proc(x pceb! pccb!) ([] x 1 cont(tb) (== tb 2 cont() (pccb! true) cont() (pccb! \
          false)))")
  in
  let lin = time_ns ~budget (fun () -> ignore (Rewrite.reduce_app ~rules:linear fused)) in
  let idx =
    time_ns ~budget (fun () -> ignore (Rewrite.reduce_app ~rules:[ indexed ] fused))
  in
  Printf.printf
    "reduce-pass over the fused pipeline: linear %.0f ns, indexed %.0f ns (%.2fx, \
     informational)\n"
    lin idx (lin /. idx);
  json_add
    "{\"experiment\":\"E15\",\"metric\":\"reduce-pass\",\"linear_ns\":%.1f,\"indexed_ns\":%.1f,\"speedup\":%.2f}"
    lin idx (lin /. idx)

let e11 ~quick () =
  section
    (if quick then
       "E11 — specialization cache (smoke mode)"
     else "E11 — persistent specialization cache: hit rate, cold-reopen latency");
  Runtime.install ();
  Tml_query.Qprims.install ();
  e11_hit_rate ~reps:(if quick then 12 else 25);
  e11_reopen ()

let () =
  Printf.printf
    "TML benchmark harness — reproduction of Gawecki & Matthes, EDBT 1996\n\
     (abstract instruction counts are deterministic; wall times vary)\n";
  if smoke_mode then begin
    Printf.printf "[smoke mode: E11 + E12 + E15 quick only]\n";
    experiment "E11" (e11 ~quick:true);
    experiment "E12" (e12 ~budget:0.005);
    experiment "E15" (e15 ~budget:0.005);
    write_json ()
  end
  else begin
    if fast_mode then Printf.printf "[fast mode: puzzle skipped]\n";
    experiment "E1/E2" e1_e2;
    experiment "E3" e3;
    experiment "E4" e4;
    experiment "E5" e5;
    experiment "E6" e6;
    experiment "E7" e7;
    experiment "E9" e9;
    experiment "ablation" ablation;
    experiment "E8" e8;
    experiment "E10" e10;
    experiment "E11" (e11 ~quick:false);
    experiment "E12" (e12 ~budget:0.05);
    experiment "E14" e14;
    experiment "E15" (e15 ~budget:0.05);
    write_json ();
    Printf.printf "\nAll experiments completed.\n"
  end
