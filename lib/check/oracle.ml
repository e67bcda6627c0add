open Tml_core
open Tml_vm
module Reflect_ = Tml_reflect.Reflect

let fuel = 3_000_000
let installed = lazy (Tml_query.Qprims.install ())

type engine =
  | Tree
  | Mach
  | Opt of string * Optimizer.config
  | Reflect of string * Reflect_.config
  | Reoptimized of string * Reflect_.config
  | Tiered of string * Reflect_.config option

let engine_name = function
  | Tree -> "tree"
  | Mach -> "mach"
  | Opt (name, _) -> name
  | Reflect (name, _) -> name
  | Reoptimized (name, _) -> name
  | Tiered (name, _) -> name

let engines ~validate =
  let ov (c : Optimizer.config) = { c with Optimizer.validate } in
  let refl use_query_rules =
    {
      Reflect_.default with
      Reflect_.optimizer = ov Reflect_.default.Reflect_.optimizer;
      use_ptml = true;
      use_query_rules;
    }
  in
  [
    Tree;
    Mach;
    Opt ("o1", ov Optimizer.o1);
    Opt ("o2", ov Optimizer.o2);
    Opt ("o3", ov Optimizer.o3);
    Reflect ("reflect", refl false);
    Reflect ("reflect-q", refl true);
    Tiered ("tiered", None);
    Tiered ("tiered-reflect", Some (refl true));
  ]

type observation = {
  outcome : Eval.outcome;
  output : string;
  store : string;
  steps : int;
}

let pp_observation ppf o =
  Format.fprintf ppf "@[<v>outcome: %a@ output: %S@ steps: %d@ store:@ %s@]" Eval.pp_outcome
    o.outcome o.output o.steps o.store

let observation_equal a b =
  Eval.outcome_equal a.outcome b.outcome && String.equal a.output b.output
  && String.equal a.store b.store

type disagreement = {
  engine : string;
  baseline : observation option;
  got : (observation, string) result;
}

type verdict =
  | Agree of observation
  | Disagree of disagreement list

let pp_verdict ppf = function
  | Agree o -> Format.fprintf ppf "@[<v>agree (%d steps on the tree evaluator)@]" o.steps
  | Disagree ds ->
    Format.fprintf ppf "@[<v>";
    List.iteri
      (fun i d ->
        if i > 0 then Format.fprintf ppf "@ ";
        (match d.got with
        | Error e -> Format.fprintf ppf "engine %s errored: %s" d.engine e
        | Ok o -> Format.fprintf ppf "engine %s observed:@ %a" d.engine pp_observation o);
        match d.baseline with
        | None -> ()
        | Some b -> Format.fprintf ppf "@ tree baseline:@ %a" pp_observation b)
      ds;
    Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Running one engine                                                  *)
(* ------------------------------------------------------------------ *)

(* Every observation runs on a fresh heap, whose OIDs restart: nothing
   derived from an earlier heap survives it, since effect summaries live
   on function objects and tier state on code units. *)
let fresh_ctx () =
  Lazy.force installed;
  let heap = Value.Heap.create () in
  Runtime.create ~fuel heap

let as_abs = function
  | Term.Abs f -> f
  | _ -> Runtime.fault "oracle: generated program is not an abstraction"

(* Register [proc] as a store function object for the persistent engines.
   When [bindings] is nonempty the given identifiers are left free in the
   stored term and linked as R-value bindings instead of being passed as
   runtime arguments. *)
let store_program ctx ~(proc : Term.value) ~bindings ~args =
  let f = as_abs proc in
  let stored, passed_args =
    if bindings = [] then proc, args
    else begin
      (* drop the leading value parameters: they stay free and get linked *)
      let nbind = List.length bindings in
      let rec drop n xs = if n = 0 then xs else drop (n - 1) (List.tl xs) in
      Term.Abs { f with Term.params = drop nbind f.Term.params }, []
    end
  in
  Value.Heap.alloc_func ctx.Runtime.heap ~name:"fuzz" ~bindings stored, passed_args

(* Run [proc] on [args] under [engine] in context [ctx].  The persistent
   engines register the program as a store function object first; when
   [bindings] is nonempty the given identifiers are left free in the stored
   term and linked as R-value bindings instead of being passed as runtime
   arguments — the reflective optimizer then sees them as literal store
   references. *)
let run_engine engine ctx ~(proc : Term.value) ~(bindings : (Ident.t * Value.t) list)
    ~(args : Value.t list) =
  match engine with
  | Tree ->
    let v = Eval.eval_value ctx ~env:Ident.Map.empty proc in
    Eval.run_proc ctx v args
  | Mach -> Machine.run_abs ctx (as_abs proc) args
  | Opt (_, config) -> (
    let optimized, _report = Optimizer.optimize_value ~config proc in
    (* η-reduction can legitimately collapse a whole procedure to a bare
       primitive (or another non-abstraction value); fall back to the
       machine's value-application entry point in that case *)
    match optimized with
    | Term.Abs f -> Machine.run_abs ctx f args
    | v -> Machine.run_proc ctx (Eval.eval_value ctx ~env:Ident.Map.empty v) args)
  | Reflect (_, config) ->
    let oid, passed_args = store_program ctx ~proc ~bindings ~args in
    ignore (Reflect_.optimize_inplace ~config ctx oid);
    Machine.run_proc ctx (Value.Oidv oid) passed_args
  | Reoptimized (_, config) ->
    (* the second pass rewrites the first pass's output, on a function
       object that now carries the first pass's effect summary *)
    let oid, passed_args = store_program ctx ~proc ~bindings ~args in
    ignore (Reflect_.optimize_inplace ~config ctx oid);
    ignore (Reflect_.optimize_inplace ~config ctx oid);
    Machine.run_proc ctx (Value.Oidv oid) passed_args
  | Tiered (_, config_opt) ->
    (* the tiered-vs-machine pair: store the program, optionally optimize
       it reflectively, force-promote it to the compiled closure tier and
       run it through the machine's normal entry point — the tier hook
       must route execution into compiled code.  A promotion that never
       runs compiled code would make the comparison vacuous, so that is
       an engine error. *)
    let oid, passed_args = store_program ctx ~proc ~bindings ~args in
    (match config_opt with
    | Some config -> ignore (Reflect_.optimize_inplace ~config ctx oid)
    | None -> ());
    let runs () = Tml_obs.Metrics.counter_value Jit.runs in
    let runs_before = runs () in
    let promoted = Tierup.force_promote ctx oid in
    let outcome = Machine.run_proc ctx (Value.Oidv oid) passed_args in
    if promoted && runs () <= runs_before then
      Runtime.fault "tiered: promoted function never entered the compiled tier";
    outcome

(* Exactly one of [mk_args]/[mk_bindings] runs per observation: the
   persistent engines link store references as bindings, everything else
   receives them as runtime arguments.  (Both closures may allocate — e.g.
   the query relation — so only one may execute.) *)
let observe engine ~proc ~mk_args ~mk_bindings ~store_of =
  let ctx = fresh_ctx () in
  let bindings =
    match engine with
    | Reflect _ | Reoptimized _ | Tiered _ -> mk_bindings ctx
    | Tree | Mach | Opt _ -> []
  in
  let args = if bindings = [] then mk_args ctx else [] in
  let outcome = run_engine engine ctx ~proc ~bindings ~args in
  {
    outcome;
    output = Buffer.contents ctx.Runtime.out;
    store = store_of ctx args bindings;
    steps = ctx.Runtime.steps;
  }

(* ------------------------------------------------------------------ *)
(* Differential comparison                                             *)
(* ------------------------------------------------------------------ *)

let try_observe engine ~proc ~mk_args ~mk_bindings ~store_of =
  match observe engine ~proc ~mk_args ~mk_bindings ~store_of with
  | o -> Ok o
  | exception Optimizer.Validation_error msg -> Error ("Validation_error: " ^ msg)
  | exception Runtime.Fault msg -> Error ("Fault outside the run: " ^ msg)
  | exception Failure msg -> Error ("Failure: " ^ msg)
  | exception Stack_overflow -> Error "Stack_overflow"

let differential ~engines ~proc ~mk_args ~mk_bindings ~store_of =
  match try_observe Tree ~proc ~mk_args ~mk_bindings ~store_of with
  | Error e -> Disagree [ { engine = "tree"; baseline = None; got = Error e } ]
  | Ok base ->
    let disagreements =
      List.filter_map
        (fun engine ->
          match engine with
          | Tree -> None
          | _ -> (
            match try_observe engine ~proc ~mk_args ~mk_bindings ~store_of with
            | Error e ->
              Some { engine = engine_name engine; baseline = Some base; got = Error e }
            | Ok o ->
              if observation_equal base o then None
              else Some { engine = engine_name engine; baseline = Some base; got = Ok o }))
        engines
    in
    if disagreements = [] then Agree base else Disagree disagreements

let check_case ~engines (c : Tgen.case) =
  differential ~engines ~proc:c.Tgen.proc
    ~mk_bindings:(fun _ -> [])
    ~mk_args:(fun _ -> [ Value.Int c.Tgen.a; Value.Int c.Tgen.b ])
    ~store_of:(fun ctx _ _ -> Canon.dump_heap ctx.Runtime.heap)

(* The shared run spec of a query case: how to materialize the relation
   (as an R-value binding on the persistent path, a runtime argument
   everywhere else) and what part of the store to compare. *)
let query_spec (c : Tgen.query_case) =
  let mk_rel ctx =
    (* tiny pages so the battery spans the chunked layout (page faults,
       tail vs sealed pages) even at oracle scale *)
    let saved = !Tml_vm.Relcore.default_page_size in
    Tml_vm.Relcore.default_page_size := 3;
    Fun.protect
      ~finally:(fun () -> Tml_vm.Relcore.default_page_size := saved)
      (fun () ->
        let rel =
          Tml_query.Rel.create ctx ~name:"t"
            (List.map
               (fun row -> Array.of_list (List.map (fun x -> Value.Int x) row))
               c.Tgen.rows)
        in
        Option.iter (Tml_query.Rel.add_index ctx rel) (Tgen.base_index c);
        rel)
  in
  let rel_param =
    match c.Tgen.qproc with
    | Term.Abs { Term.params = r :: _; _ } -> r
    | _ -> Runtime.fault "oracle: query program is not an abstraction"
  in
  let mk_bindings ctx = [ rel_param, Value.Oidv (mk_rel ctx) ] in
  let mk_args ctx = [ Value.Oidv (mk_rel ctx) ] in
  let store_of ctx args bindings =
    let root =
      match args, bindings with
      | root :: _, _ -> root
      | [], (_, root) :: _ -> root
      | [], [] -> Value.Unit
    in
    Canon.dump_reachable ctx [ root ]
  in
  mk_bindings, mk_args, store_of

let check_query ~engines (c : Tgen.query_case) =
  let mk_bindings, mk_args, store_of = query_spec c in
  differential ~engines ~proc:c.Tgen.qproc ~mk_bindings ~mk_args ~store_of

let observe_query engine (c : Tgen.query_case) =
  let mk_bindings, mk_args, store_of = query_spec c in
  try_observe engine ~proc:c.Tgen.qproc ~mk_bindings ~mk_args ~store_of

let case_fails ~engines c =
  match check_case ~engines c with
  | Agree _ -> false
  | Disagree _ -> true

let query_fails ~engines c =
  match check_query ~engines c with
  | Agree _ -> false
  | Disagree _ -> true

(* ------------------------------------------------------------------ *)
(* Purity cross-check                                                  *)
(* ------------------------------------------------------------------ *)

type purity_verdict =
  | Purity_agree
  | Purity_untestable of string
  | Purity_violation of string

(* The differential oracles validate the OPTIMIZER against the evaluators;
   this one validates the ANALYSIS against an execution.  The inferred
   signature of a generated query procedure makes up to three testable
   claims: a read-only procedure may neither mutate the store reachable
   from the base relation nor write output, a fault-free procedure may not
   fault, and a terminating one may not exhaust the (generous) fuel.  Any
   observed counter-example is an unsoundness in the inference — exactly
   the bug class the analysis-gated rewrites rely on never happening. *)
let check_purity (q : Tgen.query_case) =
  match q.Tgen.qproc with
  | Term.Abs f -> (
    let s =
      Tml_analysis.Infer.strip
        (Tml_analysis.Infer.summarize Tml_analysis.Infer.empty_env f)
    in
    let claims_read_only = Tml_analysis.Effsig.read_only s in
    let claims_no_fault = not s.Tml_analysis.Effsig.faults in
    let claims_terminates = not s.Tml_analysis.Effsig.diverges in
    if not (claims_read_only || claims_no_fault || claims_terminates) then
      Purity_untestable "no testable claim (worst-case signature)"
    else
      let ctx = fresh_ctx () in
      let root =
        Value.Oidv
          (Tml_query.Rel.create ctx ~name:"t"
             (List.map
                (fun row -> Array.of_list (List.map (fun x -> Value.Int x) row))
                q.Tgen.rows))
      in
      let before = Canon.dump_reachable ctx [ root ] in
      match
        let v = Eval.eval_value ctx ~env:Ident.Map.empty q.Tgen.qproc in
        Eval.run_proc ctx v [ root ]
      with
      | exception Runtime.Fault msg -> Purity_untestable ("fault outside the run: " ^ msg)
      | exception Stack_overflow -> Purity_untestable "stack overflow"
      | outcome ->
        let after = Canon.dump_reachable ctx [ root ] in
        let output = Buffer.contents ctx.Runtime.out in
        let violations =
          List.filter_map
            (fun (active, broken, msg) -> if active && broken then Some msg else None)
            [
              ( claims_read_only,
                not (String.equal before after),
                "claimed read-only, but the store reachable from the base relation changed" );
              claims_read_only, output <> "", "claimed read-only, but wrote output";
              ( claims_no_fault,
                (match outcome with Eval.Fault _ -> true | _ -> false),
                "claimed fault-free, but faulted" );
              ( claims_terminates,
                (match outcome with Eval.No_fuel -> true | _ -> false),
                "claimed terminating, but exhausted the fuel budget" );
            ]
        in
        if violations = [] then Purity_agree
        else
          Purity_violation
            (Format.asprintf "@[<v>%a@ inferred: %a@]"
               (Format.pp_print_list Format.pp_print_string)
               violations Tml_analysis.Effsig.pp s))
  | _ -> Purity_untestable "query program is not an abstraction"

let purity_fails q =
  match check_purity q with
  | Purity_violation _ -> true
  | Purity_agree | Purity_untestable _ -> false
