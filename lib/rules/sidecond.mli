(** The syntactic walks of the rule DSL's side-condition vocabulary: they
    decide whether a declared precondition holds at a candidate redex.
    Every analysis here is conservative — [false] only ever costs a missed
    rewrite, never soundness.  The aliasing condition
    ([Dsl.Alias_consumed_ok]) is decided by flow instead, by
    [Tml_analysis.Alias.select_alias_ok]. *)

open Tml_core

(** [pure_app a] — only continuation jumps, β-redexes and [Pure]
    primitives (no [Y]): evaluating [a] can neither touch the store, call
    unknown procedures nor diverge. *)
val pure_app : Term.app -> bool

(** [row_local x a] — [a] observes the row [x] exclusively through field
    reads and performs no mutation, host calls or recursion, making it a
    deterministic function of the row's field contents. *)
val row_local : Ident.t -> Term.app -> bool
