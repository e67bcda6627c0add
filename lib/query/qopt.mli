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
    rules plus the store-aware rules over a closure that never fires),
    as registered by {!install}. *)
val rule_descriptors : Tml_rules.Dsl.rule list

(** [runtime_rules ctx] — all store-dependent rules: [q.join-order],
    [q.index-join], [q.index-select] and [q.select-past] (which fires only
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
