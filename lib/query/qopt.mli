(** The query optimizer, as a set of domain rewriters for the TML optimizer
    (figure 4: the program optimizer and the query optimizer invoke each
    other on the same uniform representation — here literally, by running in
    the same reduction engine).

    "In general, since the optimization of query expressions depends on
    runtime bindings (for example, knowledge about index structures), we
    have to delay query optimizations until runtime": the rules of
    [runtime_rules] consult the live store and are only available to the
    dynamic (reflective) optimizer. *)

open Tml_core

(** [install ()] registers the query primitives ({!Qprims.install}) and
    announces the query rules — declarative and store-aware — to the rule
    registry ({!Tml_rules.Index.register}) for the audit surface. *)
val install : unit -> unit

(** Store-independent algebraic rules ({!Qrewrite.algebraic_rules}),
    available to the static optimizer, as a flat list; the optimizer entry
    points below consult {!static_plan} instead. *)
val static_rules : Rewrite.rule list

(** [static_plan ()] — the store-independent rules as the optimizer should
    receive them: one head-indexed dispatcher ({!Tml_rules.Index.compile}). *)
val static_plan : unit -> Rewrite.rule list

(** [full_plan ctx] — {!static_plan} plus the store-aware rules, as one
    dispatch plan. *)
val full_plan : Tml_vm.Runtime.ctx -> Rewrite.rule list

(** Descriptors of every rule this library can fire (declarative query
    rules plus representative descriptors for the two store-aware
    closures), as registered by {!install}. *)
val rule_descriptors : Tml_rules.Dsl.rule list

(** [index_select ctx] — σ(field = key) over a relation known (at
    runtime) to carry a hash index on that field becomes an [indexselect].
    The relation must appear as a literal OID, i.e. the term must already be
    linked against the live store — which is exactly why this optimization
    cannot happen at compile time.  The key may be a literal or a variable
    bound at run time (a parameter of the enclosing function): the probe
    then takes its key when it runs, and falls back to a scan when the
    key has no literal form or the index is gone. *)
val index_select : Tml_vm.Runtime.ctx -> Rewrite.rule

(** [select_past ctx] — hoist a selection over a base relation past an
    intervening read-only computation so two selections become adjacent
    (and [Qrewrite.merge_select] can fuse them).  Gated on the effect
    analysis: the hoisted selection's predicate must be provably pure,
    terminating and fault-free, and the intervening computation read-only;
    the relation must resolve (at runtime) to a live heap relation so the
    selection itself cannot fault. *)
val select_past : Tml_vm.Runtime.ctx -> Rewrite.rule

(** [index_join ctx] — ⋈(x.f1 = y.f2) whose inner relation carries a live
    persistent hash index on f2 becomes an [idxjoin] probe loop.  Like
    [index_select], the inner relation must appear as a literal OID. *)
val index_join : Tml_vm.Runtime.ctx -> Rewrite.rule

(** [join_order ctx] — reassociate a left-deep equi-join chain
    [A ⋈ B ⋈ C] into [A ⋈ (B ⋈ C)] when the per-relation cardinality
    statistics (row counts and distinct-key sketches) estimate the
    right-deep order as cheaper.  Row order and tuple layout of the
    output are preserved; the provenance fact records the enabling
    cardinalities and both cost estimates. *)
val join_order : Tml_vm.Runtime.ctx -> Rewrite.rule

(** [runtime_rules ctx] — all store-dependent rules ([select_past] only
    while [Tml_analysis.Bridge.enabled]). *)
val runtime_rules : Tml_vm.Runtime.ctx -> Rewrite.rule list

(** The store-dependent rules as DSL descriptors (closure escape hatch),
    for callers assembling their own dispatch plan (the reflective
    optimizer). *)
val declarative_runtime_rules : Tml_vm.Runtime.ctx -> Tml_rules.Dsl.rule list

(** [optimize ?config ctx a] — convenience: run the full TML optimizer with
    both the static and the runtime query rules. *)
val optimize :
  ?config:Optimizer.config -> Tml_vm.Runtime.ctx -> Term.app -> Term.app * Optimizer.report

(** [optimize_static ?config a] — the compile-time variant: algebraic rules
    only. *)
val optimize_static : ?config:Optimizer.config -> Term.app -> Term.app * Optimizer.report
