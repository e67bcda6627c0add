(** The discrimination-style matcher index: compiles an active rule set
    into a head-symbol-keyed dispatch table, so rule lookup at a candidate
    node is one root match + one hashtable probe instead of a linear scan
    over every rule — observably equivalent to the scan (same fires, same
    provenance, same counts) because each bucket preserves original rule
    order and only omits rules whose head test could never succeed there.

    Also home of the global rule registry the audit surface
    ([tmllint --rules], the [@rules] obligation bundle) consumes. *)

open Tml_core

(** [compile rules] — one dispatching [Rewrite.rule] covering the whole
    set: what the optimizer entry points install as [config.rules].
    Observably equivalent to trying [List.map Dsl.to_rewrite rules] in
    order, the reference scan the equivalence tests compare it
    against. *)
val compile : Dsl.rule list -> Rewrite.rule

(** {1 Registry} *)

(** [register r] — announce a rule to the audit surface.  Re-registering
    a name replaces the descriptor (providers re-install on re-init). *)
val register : Dsl.rule -> unit

val register_all : Dsl.rule list -> unit

(** [registered ()] — every announced rule, in first-registration order. *)
val registered : unit -> Dsl.rule list
