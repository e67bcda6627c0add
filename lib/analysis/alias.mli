(** Alias and escape analysis for store-allocated values (relations).

    The query rewrites of [Tml_query.Qrewrite] introduce aliases: replacing
    [σtrue(R)] by [R] binds the base relation to the name of the (would-be)
    copy.  The rewrite is only sound when the alias is never distinguishable
    from a copy — never written through, never identity-compared, never
    leaked past the analyzed region.  This module decides it by flow:
    β-bound procedures are resolved, taint is propagated through parameter
    passing and closure capture, and only the residual uses are judged. *)

open Tml_core

(** Relation-reading primitives mapped to the argument positions (over the
    full argument list) at which a relation is consumed read-only. *)
val reader_positions : string -> int list

(** [escapes ~tmp body] is true when [tmp] (or a closure capturing it) may
    reach a position the analysis cannot account for: a non-reading
    primitive argument, an unknown callee, a functional position for the
    relation itself, or any argument of a call the flow cannot follow. *)
val escapes : tmp:Ident.t -> Term.app -> bool

(** The gate of [Qrewrite.constant_select] (the rule DSL's
    [Alias_consumed_ok]): the region's inferred effect is at most
    [Observer] and [tmp] does not escape — in particular, no closure
    capturing [tmp] is passed to a continuation the region does not bind,
    since the caller could run it after a later write to the base
    relation. *)
val select_alias_ok : tmp:Ident.t -> Term.app -> bool
