(** The optimizer bridge: effect-analysis-driven rewriting.

    Consumers opt in by wrapping their {!Tml_core.Optimizer.config} with
    {!with_analysis}; the global {!enabled} switch (on by default, turned
    off by [tmlc --fno-analysis]) turns off the analysis-driven
    optimizations.  It does not touch the alias gate of
    [Qrewrite.constant_select]: that gate is a soundness precondition and
    always runs the escape analysis ({!Alias.select_alias_ok}). *)

open Tml_core

val enabled : bool ref

(** Delete a call with a dead result when the callee's inferred signature
    is pure, terminating, fault-free and confined to its return
    continuation. *)
val effect_remove : Rewrite.rule

(** All effect-based domain rules. *)
val rules : Rewrite.rule list

(** Expansion bonus for abstractions with benign inferred effects. *)
val inline_bonus : Term.abs -> int

(** [with_analysis c] adds {!rules} to [c.rules] and installs
    {!inline_bonus} as the expansion pass's [effect_bonus]; the identity
    when {!enabled} is false. *)
val with_analysis : Optimizer.config -> Optimizer.config
