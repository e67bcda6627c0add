open Tml_core
open Tml_vm

type config = {
  optimizer : Optimizer.config;
  inline_oid_limit : int;
  inline_budget : int;
  use_ptml : bool;
  use_query_rules : bool;
}

let default =
  {
    optimizer = Optimizer.o2;
    inline_oid_limit = 160;
    inline_budget = 96;
    use_ptml = true;
    use_query_rules = true;
  }

type result = {
  oid : Oid.t;
  original_tml : Term.value;
  optimized_tml : Term.value;
  report : Optimizer.report;
  inlined_calls : int;
}

let func_obj ctx oid =
  match Value.Heap.get_opt ctx.Runtime.heap oid with
  | Some (Value.Func fo) -> fo
  | Some _ -> Runtime.fault "reflect.optimize: %s is not a function" (Oid.to_string oid)
  | None -> Runtime.fault "reflect.optimize: dangling reference %s" (Oid.to_string oid)

(* Substitute a function's free identifiers by the literal forms of its
   R-value bindings; identifiers whose binding has no literal form (live
   closures of the host engine) stay free and are reported back. *)
let close_over_bindings (fo : Value.func_obj) (v : Term.value) =
  let subst, leftover =
    List.fold_left
      (fun (subst, leftover) (id, value) ->
        match Value.to_literal value with
        | Some l -> Ident.Map.add id (Term.lit l) subst, leftover
        | None -> subst, (id, value) :: leftover)
      (Ident.Map.empty, []) fo.Value.fo_bindings
  in
  let v' =
    match v with
    | Term.Abs a -> Term.Abs { a with body = Subst.app_many subst a.body }
    | _ -> v
  in
  v', List.rev leftover

let store_fold ctx (a : Term.app) =
  let immutable_slots oid =
    match Value.Heap.get_opt ctx.Runtime.heap oid with
    | Some (Value.Vector slots) | Some (Value.Tuple slots) -> Some slots
    | _ -> None
  in
  match a.Term.func, a.Term.args with
  | Term.Prim "[]", [ Term.Lit (Literal.Oid o); Term.Lit (Literal.Int i); k ] -> (
    match immutable_slots o with
    | Some slots when i >= 0 && i < Array.length slots -> (
      match Value.to_literal slots.(i) with
      | Some l ->
        Rewrite.note_rule ~fact:(Printf.sprintf "immutable slots of %s" (Oid.to_string o))
          "reflect.store-fold";
        Some (Term.app k [ Term.lit l ])
      | None -> None)
    | _ -> None)
  | Term.Prim "size", [ Term.Lit (Literal.Oid o); k ] -> (
    match immutable_slots o with
    | Some slots ->
      Rewrite.note_rule ~fact:(Printf.sprintf "immutable slots of %s" (Oid.to_string o))
        "reflect.store-fold";
      Some (Term.app k [ Term.int (Array.length slots) ])
    | None -> None)
  | _ -> None

let inline_oid ctx ~budget ~limit ~count (a : Term.app) =
  match a.Term.func with
  | Term.Lit (Literal.Oid o) when !budget > 0 -> (
    match Value.Heap.get_opt ctx.Runtime.heap o with
    | Some (Value.Func fo) -> (
      match fo.Value.fo_tml with
      | Term.Abs fabs
        when List.length fabs.Term.params = List.length a.Term.args
             && Term.size_app fabs.Term.body <= limit ->
        let closed, leftover = close_over_bindings fo fo.Value.fo_tml in
        if leftover <> [] then None
        else begin
          decr budget;
          incr count;
          Rewrite.note_rule ~fact:("stored function " ^ fo.Value.fo_name) "reflect.inline-oid";
          Some { a with Term.func = Alpha.freshen_value closed }
        end
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Query operators whose first value argument is a user-level procedure
   (predicate, target or body). *)
let query_fn_arg_prims =
  [ "select"; "project"; "exists"; "foreach"; "sum"; "minagg"; "maxagg"; "join" ]

let inline_query_arg ctx ~budget ~limit ~count (a : Term.app) =
  match a.Term.func with
  | Term.Prim name when List.mem name query_fn_arg_prims && !budget > 0 -> (
    match a.Term.args with
    | (Term.Lit (Literal.Oid o) as _fn) :: rest -> (
      match Value.Heap.get_opt ctx.Runtime.heap o with
      | Some (Value.Func fo) -> (
        match fo.Value.fo_tml with
        | Term.Abs fabs when Term.size_app fabs.Term.body <= limit ->
          let closed, leftover = close_over_bindings fo fo.Value.fo_tml in
          if leftover <> [] then None
          else begin
            decr budget;
            incr count;
            Rewrite.note_rule
              ~fact:(Printf.sprintf "%s argument %s" name fo.Value.fo_name)
              "reflect.inline-query-arg";
            Some { a with Term.args = Alpha.freshen_value closed :: rest }
          end
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Translation validation of the reflective pipeline itself (enabled through
   [config.optimizer.validate], which the optimizer also honours per pass):
   the optimized function must be well-formed and its free identifiers must
   be a subset of the leftover (non-literal) bindings plus the frees of the
   closed input — anything else would dangle at re-link time. *)
let validate_result ~closed ~leftover optimized =
  let allowed =
    List.fold_left
      (fun s (id, _) -> Ident.Set.add id s)
      (Term.free_vars_value closed)
      leftover
  in
  match
    Wf.check_value ~free_allowed:(fun id -> Ident.Set.mem id allowed) optimized
  with
  | Ok () -> ()
  | Error (e :: _) ->
    raise
      (Optimizer.Validation_error (Format.asprintf "reflect.optimize: %a" Wf.pp_error e))
  | Error [] -> raise (Optimizer.Validation_error "reflect.optimize: ill-formed result")

(* The effect summary the analysis derives for an optimized function,
   kept on its function object ([fo_summary]) for later optimizations of
   callers that reach it through a literal OID; [effect_attrs] persists
   its gist with the cost/size attributes. *)
let summarize optimized =
  if !Tml_analysis.Bridge.enabled then Tml_analysis.Infer.summary_of_value optimized else None

let effect_attrs = function
  | None -> []
  | Some summ ->
    let s = Tml_analysis.Infer.strip summ in
    [
      "effect_class", Tml_analysis.Effsig.class_rank s.Tml_analysis.Effsig.eff;
      "diverges", (if s.Tml_analysis.Effsig.diverges then 1 else 0);
    ]

(* For one optimizer run, a literal OID resolves to the summary on the
   function object it names in the heap under optimization.  [peek]
   faults nothing in: an object not materialized (or never optimized)
   has no summary, and no other heap's object can answer for its OID. *)
let with_heap_summaries heap f =
  let saved = !Tml_analysis.Infer.oid_resolver in
  (Tml_analysis.Infer.oid_resolver :=
     fun o ->
       match Value.Heap.peek heap o with
       | Some (Value.Func fo) -> fo.Value.fo_summary
       | _ -> None);
  Fun.protect ~finally:(fun () -> Tml_analysis.Infer.oid_resolver := saved) f

(* The store-aware rules as DSL descriptors (closure escape hatch: they
   consult the live heap, so their verification is the oracle battery, not
   a derived obligation).  Each declares its dispatch heads for the
   indexed matcher; a head set that under-declared would silently lose
   fires, which the indexed≡linear property test would catch.  The audit
   registry holds each over a closure that never fires. *)
let reflect_table =
  let open Tml_rules.Dsl in
  [
    ( "reflect.store-fold",
      "Fold a field read / size probe of an immutable store object (vector, \
       tuple) to the literal it must produce.",
      [ Head_prim "[]"; Head_prim "size" ],
      fun ctx _ ~budget:_ ~count:_ -> store_fold ctx );
    ( "reflect.inline-oid",
      "Inline a stored function applied as a literal OID, closing over its \
       literal R-value bindings (budgeted, size-limited).",
      [ Head_oid ],
      fun ctx config ~budget ~count ->
        inline_oid ctx ~budget ~limit:config.inline_oid_limit ~count );
    ( "reflect.inline-query-arg",
      "Inline a stored function appearing as the procedure argument of a \
       query operator, exposing its body to the algebraic rules.",
      List.map (fun p -> Head_prim p) query_fn_arg_prims,
      fun ctx config ~budget ~count ->
        inline_query_arg ctx ~budget ~limit:config.inline_oid_limit ~count );
  ]

let reflect_rules_of rule_of =
  List.map
    (fun (name, doc, heads, rule) ->
      Tml_rules.Dsl.closure_rule ~name ~doc ~heads (rule_of rule))
    reflect_table

let reflect_rules ctx config ~budget ~count =
  reflect_rules_of (fun rule -> rule ctx config ~budget ~count)

let rule_descriptors = reflect_rules_of (fun _ _ -> None)

let () = Tml_rules.Index.register_all rule_descriptors

(* The store-aware rule set used by both optimize variants: one
   head-indexed dispatcher over the reflective rules plus (when enabled)
   the declarative query rules and the store-dependent query closures. *)
let store_rules ctx config ~budget ~count =
  [
    Tml_rules.Index.compile
      (reflect_rules ctx config ~budget ~count
      @
      if config.use_query_rules then
        Tml_query.Qrewrite.declarative_rules @ Tml_query.Qopt.declarative_runtime_rules ctx
      else []);
  ]

(* The specialization pipeline for one function object: re-establish
   its literal bindings around the body, run the optimizer with the
   store-aware rules, and derive what the function object keeps (the
   attributes and the effect summary).  The result carries [oid]. *)
let specialize ~config ctx oid (fo : Value.func_obj) =
  Tml_obs.Trace.with_span ~cat:"reflect" "specialize"
    ~args:[ ("name", Tml_obs.Trace.Str fo.Value.fo_name); ("oid", Tml_obs.Trace.Int (Oid.to_int oid)) ]
  @@ fun () ->
  Tml_obs.Events.reoptimize ~name:fo.Value.fo_name ~oid:(Oid.to_int oid);
  let heap = ctx.Runtime.heap in
  let original_tml =
    if config.use_ptml then Tml_store.Ptml.decode_value fo.Value.fo_ptml else fo.Value.fo_tml
  in
  (* α-convert: the decoded tree must not share binder stamps with
     anything already live, and the in-memory tree is shared with the
     running code. *)
  let fresh = Alpha.freshen_value original_tml in
  let closed, leftover = close_over_bindings fo fresh in
  let budget = ref config.inline_budget in
  let count = ref 0 in
  let rules = store_rules ctx config ~budget ~count in
  let opt_config =
    Tml_analysis.Bridge.with_analysis (Optimizer.with_rules config.optimizer rules)
  in
  let optimized, report, summary =
    with_heap_summaries heap (fun () ->
        let optimized, report = Optimizer.optimize_value ~config:opt_config closed in
        optimized, report, summarize optimized)
  in
  if opt_config.Optimizer.validate then validate_result ~closed ~leftover optimized;
  let attrs =
    [
      "cost_before", report.Optimizer.cost_before;
      "cost_after", report.Optimizer.cost_after;
      "size_before", report.Optimizer.size_before;
      "size_after", report.Optimizer.size_after;
      "inlined_calls", !count;
    ]
    @ effect_attrs summary
  in
  (* Persist the derivation log (when provenance recording is on) as a
     plain Bytes object next to the PTML; the function references it
     through its "provenance" attribute, so the object codec and
     existing images are untouched and the log survives a durable
     commit/reopen. *)
  let attrs =
    match report.Optimizer.prov with
    | [] -> attrs
    | prov ->
      let poid =
        Value.Heap.alloc heap (Value.Bytes (Bytes.of_string (Tml_store.Prov_codec.encode prov)))
      in
      ("provenance", Oid.to_int poid) :: attrs
  in
  ( { oid; original_tml; optimized_tml = optimized; report; inlined_calls = !count },
    leftover,
    attrs,
    summary )

let optimize ?(config = default) ctx oid =
  Tml_query.Qopt.install ();
  let fo = func_obj ctx oid in
  let r, leftover, attrs, summary = specialize ~config ctx oid fo in
  let new_oid =
    Value.Heap.alloc_func ctx.Runtime.heap ~name:(fo.Value.fo_name ^ "!opt") r.optimized_tml
  in
  let new_fo = func_obj ctx new_oid in
  new_fo.Value.fo_bindings <- leftover;
  new_fo.Value.fo_summary <- summary;
  (* attach derived attributes to the persistent system state *)
  new_fo.Value.fo_attrs <- attrs;
  fo.Value.fo_attrs <-
    ("optimized_as", Oid.to_int new_oid) :: List.remove_assoc "optimized_as" fo.Value.fo_attrs;
  Value.Heap.note_write ctx.Runtime.heap oid;
  (* persist the rewrite and its derived attributes with the system state *)
  (match ctx.Runtime.durable_commit with
  | Some commit -> commit ()
  | None -> ());
  { r with oid = new_oid }

let optimize_inplace ?(config = default) ctx oid =
  Tml_query.Qopt.install ();
  let fo = func_obj ctx oid in
  let r, leftover, attrs, summary = specialize ~config ctx oid fo in
  (* A re-optimization that recorded no derivation (nothing fired, or
     provenance recording was off) must not erase an existing log: the
     function's shape is still explained by the previous derivation. *)
  let attrs =
    if List.mem_assoc "provenance" attrs then attrs
    else
      match List.assoc_opt "provenance" fo.Value.fo_attrs with
      | Some p -> ("provenance", p) :: attrs
      | None -> attrs
  in
  let new_fo =
    {
      fo with
      Value.fo_tml = r.optimized_tml;
      fo_ptml = Tml_store.Ptml.encode_value r.optimized_tml;
      fo_bindings = leftover;
      fo_tree_impl = None;
      fo_mach_impl = None;
      fo_code = None;
      fo_summary = summary;
      fo_attrs = attrs;
    }
  in
  (* a new object in the slot: the heap generation moves, so compiled
     call sites that resolved [oid] do not keep its old code *)
  Value.Heap.set ctx.Runtime.heap oid (Value.Func new_fo);
  (* the new code is a new, cold unit: if the old one ran compiled,
     compile the new one now so hot functions stay on the tier *)
  Tierup.repromote ctx ~was:fo oid;
  (match ctx.Runtime.durable_commit with
  | Some commit -> commit ()
  | None -> ());
  r

let optimize_all ?(config = default) ?(passes = 2) ctx oids =
  for _ = 1 to passes do
    List.iter (fun oid -> ignore (optimize_inplace ~config ctx oid)) oids
  done

let optimize_value ?config ctx v =
  match v with
  | Value.Oidv oid -> optimize ?config ctx oid
  | _ -> Runtime.fault "reflect.optimize: expected a function reference, got %s" (Value.type_name v)

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                              *)
(* ------------------------------------------------------------------ *)

(* Read back the persisted derivation log of [oid].  Works across a
   durable reopen: the attribute and the Bytes object fault in on
   demand.  When [oid] was optimized non-inplace, the log lives on the
   derived function — follow "optimized_as" one step. *)
let provenance ctx oid =
  let heap = ctx.Runtime.heap in
  let of_attrs attrs =
    match List.assoc_opt "provenance" attrs with
    | None -> None
    | Some p -> (
      match Value.Heap.get_opt heap (Oid.of_int p) with
      | Some (Value.Bytes b) -> (
        try Some (Tml_store.Prov_codec.decode (Bytes.to_string b))
        with Tml_store.Prov_codec.Corrupt _ -> None)
      | _ -> None)
  in
  match Value.Heap.get_opt heap oid with
  | Some (Value.Func fo) -> (
    match of_attrs fo.Value.fo_attrs with
    | Some _ as r -> r
    | None -> (
      match List.assoc_opt "optimized_as" fo.Value.fo_attrs with
      | Some o -> (
        match Value.Heap.get_opt heap (Oid.of_int o) with
        | Some (Value.Func fo') -> of_attrs fo'.Value.fo_attrs
        | _ -> None)
      | None -> None))
  | _ -> None
