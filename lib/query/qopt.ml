open Tml_core
open Term

let static_rules = Qrewrite.algebraic_rules

(* σ(field = key) over a relation known (at runtime) to carry a hash
   index on that field becomes an [indexselect].  The relation must
   appear as a literal OID, i.e. the term must already be linked against
   the live store — which is exactly why this cannot happen at compile
   time.  The key may be a literal or a variable bound at run time: the
   probe then takes its key when it runs, and falls back to a scan when
   the key has no literal form or the index is gone. *)
let index_select ctx (a : app) =
  match a.func, a.args with
  | Prim "select", [ pred; (Lit (Literal.Oid rel_oid) as rel); ce; k ] -> (
    match Qrewrite.field_eq_predicate pred with
    | Some (field, key) -> (
      match Tml_vm.Value.Heap.get_opt ctx.Tml_vm.Runtime.heap rel_oid with
      | Some (Tml_vm.Value.Relation _) -> (
        match Rel.find_index ctx rel_oid field with
        | Some _ ->
          Rewrite.note_rule
            ~fact:
              (Printf.sprintf "index on field %d of %s%s" field (Oid.to_string rel_oid)
                 (match key with
                 | Var _ -> "; key bound at run time"
                 | _ -> ""))
            "q.index-select";
          Some (app (prim "indexselect") [ rel; int field; key; ce; k ])
        | None -> None)
      | _ -> None)
    | None -> None)
  | _ -> None

(* Hoist a base-relation selection past an intervening read-only
   computation so the two selections become adjacent and [merge_select]
   can fuse them:

     (select q R ce cont(t) (OP … cont(u…) (select p t ce2 k)))
     --> (OP … cont(u…) (select q R ce cont(t) (select p t ce2 k)))

   This is the reordering the purely syntactic rules cannot express: it
   commutes the outer selection with OP, which is only unobservable when
   the analysis can prove (a) the outer selection cannot fault, diverge or
   touch the store — [R] resolves to a heap relation and the predicate's
   inferred signature is pure, total and confined to its return
   continuation with well-arity jumps — and (b) the intervening
   computation is read-only, so the two cannot communicate through the
   store.  Scope is preserved by requiring [t]'s only use to be the inner
   selection's source and OP's continuation parameters to be free in
   neither the predicate nor the exception continuation.  Without the
   analysis ([Tml_analysis.Bridge.enabled] off) the rule never fires. *)
let select_past ctx (a : app) =
  match a.func, a.args with
  | Prim "select", [ (Abs qabs as q); (Lit (Literal.Oid rel_oid) as rel); ce; Abs kont ]
    when !Tml_analysis.Bridge.enabled -> (
    match Tml_vm.Value.Heap.get_opt ctx.Tml_vm.Runtime.heap rel_oid with
    | Some (Tml_vm.Value.Relation _) -> (
      match kont.params, kont.body with
      | [ t ], ({ func = Prim op; args = op_args } as mid) when op <> "select" -> (
        match List.rev op_args with
        | Abs u :: rev_rest when Term.abs_kind u = `Cont -> (
          let rest = List.rev rev_rest in
          match u.body with
          | { func = Prim "select"; args = [ _p; Var t'; _ce2; _k ] }
            when Ident.equal t t'
                 && Occurs.count_app t kont.body = 1
                 && List.for_all (fun v -> not (Occurs.occurs_value t v)) rest
                 && (let outer_frees =
                       Ident.Set.union
                         (Term.free_vars_value q)
                         (Ident.Set.union (Term.free_vars_value rel) (Term.free_vars_value ce))
                     in
                     List.for_all
                       (fun p -> not (Ident.Set.mem p outer_frees))
                       u.params)
                 && (match qabs.params with
                    | [ _x; _qce; qcc ] ->
                      let open Tml_analysis in
                      let s = (Infer.summarize Infer.empty_env qabs).Infer.body_sig in
                      s.Effsig.eff = Prim.Pure
                      && (not s.Effsig.diverges)
                      && (not s.Effsig.faults)
                      && Effsig.exits_within s (Ident.Set.singleton qcc)
                      && Infer.jumps_with_arity qcc 1 qabs.body
                    | _ -> false)
                 && Tml_analysis.Effsig.read_only (Tml_analysis.Infer.sig_of_app mid) ->
            let hoisted =
              app (prim "select") [ q; rel; ce; Abs { params = [ t ]; body = u.body } ]
            in
            Rewrite.note_rule
              ~fact:
                (Printf.sprintf "predicate pure and total; %s interposer read-only" op)
              "q.select-past";
            Some { func = mid.func; args = rest @ [ Abs { u with body = hoisted } ] }
          | _ -> None)
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ⋈(x.f1 = y.f2) whose inner relation carries a live persistent index
   on f2 becomes an idxjoin probe loop: scan the outer, probe the inner's
   hash index.  Output (row order included) matches the nested loop. *)
let index_join ctx (a : app) =
  match a.func, a.args with
  | Prim "join", [ pred; r1; (Lit (Literal.Oid r2_oid) as r2); ce; k ] -> (
    match Qrewrite.join_field_eq_predicate pred with
    | Some (f1, f2) -> (
      match Tml_vm.Value.Heap.get_opt ctx.Tml_vm.Runtime.heap r2_oid with
      | Some (Tml_vm.Value.Relation _) -> (
        match Rel.find_index ctx r2_oid f2 with
        | Some ix ->
          let fact =
            match Qcost.relation_stats ctx r2_oid with
            | Some st ->
              Printf.sprintf
                "index on field %d of %s (%d rows, %d distinct keys)" f2
                (Oid.to_string r2_oid) st.Qcost.cs_card
                (Option.value ~default:(Rel.index_distinct ix)
                   (Qcost.distinct_on st f2))
            | None ->
              Printf.sprintf "index on field %d of %s" f2 (Oid.to_string r2_oid)
          in
          Rewrite.note_rule ~fact "q.index-join";
          Some (app (prim "idxjoin") [ r1; r2; int f1; int f2; ce; k ])
        | None -> None)
      | _ -> None)
    | None -> None)
  | _ -> None

(* Reassociate a left-deep equi-join chain when the statistics say the
   other order is cheaper:

     (join (x.i = y.j) A B ce1 cont(t) (join (x.g = y.l) t C ce2 k))
     --> (join (x.(g-|A|) = y.l) B C ce2 cont(u) (join (x.i = y.j) A u ce1 k))

   Cost model (per-pair predicate probes, uniform-key selectivity from
   the per-relation stats objects):

     left  = |A||B| + est(A ⋈ B)·|C|
     right = |B||C| + est(B ⋈ C)·|A|

   and the rewrite fires only when [right < 0.9·left] — a maintained
   distinct-count statistic must justify deviating from the source
   order.  Requirements, each load-bearing:

   - all three sources are literal store relations with stats objects of
     known (homogeneous) arity, and every matched field index is within
     that arity — the synthesized predicates are then total;
   - the intermediate [t] occurs exactly once (as the inner join's
     source), so [P2], [ce2] and [k] move out of its scope unchanged;
   - the inner join's predicate left field [g] lands in the B-suffix of
     the A++B tuple ([|A| ≤ g < |A|+|B|]), so it transposes to field
     [g-|A|] of B and the rewrite never needs an A-field from the
     not-yet-joined side.

   Row order is preserved: A stays the final outer loop, and the inner
   B ⋈ C runs B-major — both orders enumerate (a, b, c) lexicographically
   and concatenation is associative, so the emitted tuples are identical.
   Termination: the result's inner join sources the fresh temp in the
   {e second} operand position, which this matcher does not accept. *)
let join_order ctx (a : app) =
  match a.func, a.args with
  | ( Prim "join",
      [
        p1;
        (Lit (Literal.Oid a_oid) as rA);
        (Lit (Literal.Oid b_oid) as rB);
        ce1;
        Abs kont;
      ] )
    when Term.abs_kind kont = `Cont -> (
    match kont.params, kont.body with
    | [ t ], { func = Prim "join"; args = [ p2; Var t'; (Lit (Literal.Oid c_oid) as rC); ce2; k ] }
      when Ident.equal t t' && Occurs.count_app t kont.body = 1 -> (
      match Qrewrite.join_field_eq_predicate p1, Qrewrite.join_field_eq_predicate p2 with
      | Some (i, j), Some (g, l) -> (
        match
          ( Qcost.relation_stats ctx a_oid,
            Qcost.relation_stats ctx b_oid,
            Qcost.relation_stats ctx c_oid )
        with
        | Some stA, Some stB, Some stC
          when stA.Qcost.cs_arity >= 0 && stB.Qcost.cs_arity >= 0
               && stC.Qcost.cs_arity >= 0 && i < stA.Qcost.cs_arity
               && j < stB.Qcost.cs_arity && g >= stA.Qcost.cs_arity
               && g < stA.Qcost.cs_arity + stB.Qcost.cs_arity
               && l < stC.Qcost.cs_arity ->
          let cA = stA.Qcost.cs_card
          and cB = stB.Qcost.cs_card
          and cC = stC.Qcost.cs_card in
          let g' = g - stA.Qcost.cs_arity in
          let est_ab =
            Qcost.est_equijoin ~ca:cA ~cb:cB ~da:(Qcost.distinct_on stA i)
              ~db:(Qcost.distinct_on stB j)
          and est_bc =
            Qcost.est_equijoin ~ca:cB ~cb:cC ~da:(Qcost.distinct_on stB g')
              ~db:(Qcost.distinct_on stC l)
          in
          let left = Qcost.nested_cost cA cB +. (est_ab *. float_of_int cC)
          and right = Qcost.nested_cost cB cC +. (est_bc *. float_of_int cA) in
          if right < 0.9 *. left then (
            let u = Ident.fresh "jt" in
            Rewrite.note_rule
              ~fact:
                (Printf.sprintf
                   "cards |A|=%d |B|=%d |C|=%d; est |A⋈B|=%.0f, |B⋈C|=%.0f; \
                    cost %.0f -> %.0f"
                   cA cB cC est_ab est_bc left right)
              "q.join-order";
            Some
              (app (prim "join")
                 [
                   Qrewrite.mk_join_field_eq ~f1:g' ~f2:l;
                   rB;
                   rC;
                   ce2;
                   cont [ u ]
                     (app (prim "join")
                        [ Qrewrite.mk_join_field_eq ~f1:i ~f2:j; rA; var u; ce1; k ]);
                 ]))
          else None
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rule descriptors and the dispatch plan                               *)
(* ------------------------------------------------------------------ *)

(* The store-aware rules keep the closure escape hatch of the rule DSL:
   they close over a runtime context, so what the audit registry holds is
   each rule over a closure that never fires, while the optimizer gets
   the live closure.  [q.join-order] must precede [q.index-join]: the
   indexed dispatcher keeps declaration order, and consuming the outer
   join into an idxjoin first would hide the chain the reassociation
   needs to see. *)
let store_aware =
  let open Tml_rules.Dsl in
  [
    ( "q.join-order",
      "Reassociate a left-deep equi-join chain A ⋈ B ⋈ C into A ⋈ (B ⋈ C) \
       when the per-relation cardinality statistics estimate the right-deep \
       order at under 0.9× the cost (runtime-only: reads stats objects).",
      Head_prim "join",
      join_order );
    ( "q.index-join",
      "⋈(x.f1 = y.f2) whose inner relation carries a live persistent hash \
       index on f2 becomes an idxjoin probe loop (runtime-only: needs the \
       linked store).",
      Head_prim "join",
      index_join );
    ( "q.index-select",
      "σ(field = key) over a relation carrying a live hash index on that \
       field becomes an indexselect probe; the key is a literal or a \
       variable bound at run time (runtime-only: needs the linked store).",
      Head_prim "select",
      index_select );
    ( "q.select-past",
      "Hoist a base-relation selection past a read-only interposer so two \
       selections become adjacent and merge-select can fuse them; gated on \
       the effect analysis (pure, total, confined predicate).",
      Head_prim "select",
      select_past );
  ]

let store_aware_rules rule_of =
  List.map
    (fun (name, doc, head, rule) ->
      Tml_rules.Dsl.closure_rule ~name ~doc ~heads:[ head ] (rule_of rule))
    store_aware

let rule_descriptors = Qrewrite.declarative_rules @ store_aware_rules (fun _ _ -> None)

let install () =
  Qprims.install ();
  Tml_rules.Index.register_all rule_descriptors

let declarative_runtime_rules ctx = store_aware_rules (fun rule -> rule ctx)

let runtime_rules ctx = List.map Tml_rules.Dsl.to_rewrite (declarative_runtime_rules ctx)

(* What the optimizer entry points actually install: the indexed
   dispatcher over the full declarative set. *)
let static_plan () = [ Tml_rules.Index.compile Qrewrite.declarative_rules ]

let full_plan ctx =
  [ Tml_rules.Index.compile (Qrewrite.declarative_rules @ declarative_runtime_rules ctx) ]

let optimize ?(config = Optimizer.default) ctx a =
  install ();
  Optimizer.optimize_app ~config:(Optimizer.with_rules config (full_plan ctx)) a

let optimize_static ?(config = Optimizer.default) a =
  install ();
  Optimizer.optimize_app ~config:(Optimizer.with_rules config (static_plan ())) a
