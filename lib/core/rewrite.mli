(** The core TML rewrite rules and the reduction pass (section 3).

    The reduction pass applies the generic rewrite rules to the TML tree
    until no more rules are applicable.  Termination is guaranteed because
    each rule strictly reduces the size of the tree when applied (the only
    size-neutral rule, [case-subst], is applicable at most once per node
    between size-reducing steps).

    "Although each individual rule is fairly simple, the combination of
    these rules is surprisingly powerful.  Many of the well-known standard
    program optimizations like constant and copy propagation, dead code
    elimination, procedure inlining or loop unrolling are just special cases
    of these general λ-calculus transformations." *)

(** Per-rule application counters. *)
type stats = {
  mutable subst : int;
  mutable remove : int;
  mutable reduce : int;
  mutable eta : int;
  mutable fold : int;
  mutable case_subst : int;
  mutable y_remove : int;
  mutable y_reduce : int;
  mutable domain : int;  (** applications of domain-specific rules *)
}

val fresh_stats : unit -> stats
val total : stats -> int
val pp_stats : Format.formatter -> stats -> unit

(** A domain-specific rewrite rule (e.g. the query rules of section 4.2 or
    the store-aware rules of the reflective optimizer).  It is tried on
    every application node alongside the core rules. *)
type rule = Term.app -> Term.app option

(** {1 Observability}

    The optimizer installs {!fire_hook} while tracing or provenance
    recording is enabled; the reduction pass then reports every
    successful rule application with the before/after redex.  The hook
    is [None] in normal operation — the fast path costs one ref read
    per rule fire. *)

(** A before/after pair at the rewritten node. *)
type redex = Rapp of Term.app * Term.app | Rvalue of Term.value * Term.value

val fire_hook : (rule:string -> fact:string -> redex -> unit) option ref

(** Domain rules are anonymous; [note_rule ?fact name] records the rule
    name (and the enabling analysis fact, if any) to attribute the
    [Some] result the rule is about to return.  Cleared before each
    domain-rule attempt; unnoted domain fires report as ["domain"]. *)
val note_rule : ?fact:string -> string -> unit

(** [named ?fact name rule] wraps [rule] so successful applications are
    attributed to [name] — the usual way to build a named rule list. *)
val named : ?fact:string -> string -> rule -> rule

(** {1 Per-rule fire accounting}

    [stats.domain] lumps all domain-rule fires; the ["rules"] source of
    the {!Tml_obs.Metrics} registry keeps one cell per noted provenance
    name, which [tmlsh :stats] and [tmlc --profile] print. *)

(** Raised (in strict mode only) when a domain rule fires without having
    noted a name — an anonymous rule that would pollute provenance. *)
exception Unnamed_rule_fire

(** The fallback name unnoted fires report under. *)
val anonymous_rule_name : string

(** Fault on unnoted domain fires (off by default).  The differential
    test battery turns it on, so no rule it exercises fires anonymously. *)
val strict_names : bool ref

(** {1 Individual rules} (exposed for unit tests) *)

(** [try_beta app] applies the combined [subst] / [remove] / [reduce] rules
    to a direct application of an abstraction: trivial values (literals,
    variables, primitives) are substituted freely; an abstraction argument is
    substituted only when its parameter is referenced exactly once (the
    precondition that prevents code growth); unreferenced parameters are
    struck out together with their arguments; an application binding no
    variables is replaced by its body. *)
val try_beta : ?stats:stats -> Term.app -> Term.app option

(** [try_eta v] applies the [η-reduce] rule to an abstraction value:
    [λ(v1..vn)(val v1..vn)] becomes [val] when no [v_i] occurs in [val]. *)
val try_eta : ?stats:stats -> Term.value -> Term.value option

(** {1 The reduction pass} *)

(** Raised when [max_steps] is exhausted — only reachable through
    non-size-reducing domain rules; the core rules always terminate. *)
exception Out_of_fuel

(** [reduce_app ?stats ?rules ?max_steps app] normalizes [app]:
    applies the core rules (plus the domain [rules]) bottom-up to fixpoint.
    [max_steps] (default 200_000) bounds the number of rule applications as
    a safety net for non-size-reducing domain rules.  Unchanged subtrees
    keep their physical identity ([Term.map_sharing]), so an
    already-normal term comes back [==] to the input. *)
val reduce_app : ?stats:stats -> ?rules:rule list -> ?max_steps:int -> Term.app -> Term.app

val reduce_value : ?stats:stats -> ?rules:rule list -> ?max_steps:int -> Term.value -> Term.value
