(** The TML optimizer: alternating reduction and expansion passes.

    "When one or more abstractions are substituted during the expansion
    pass, there usually is the opportunity to perform more reductions on the
    TML tree ..., so each expansion pass is followed by a reduction pass.
    Likewise, the reduction pass may reveal new opportunities to perform
    expansions, so the two passes are applied repeatedly until no more
    changes are made to the TML tree.  To guarantee the termination of this
    process even in obscure cases, a penalty is accumulated at each round of
    the reduction/expansion phases.  The optimization process stops when
    this penalty reaches a certain limit." (section 3)

    Domain-specific rewriters (the algebraic query rules of section 4.2, the
    store-aware rules of the reflective optimizer of section 4.1) plug into
    the reduction pass through [config.rules] — this is the interaction of
    figure 4: the program optimizer and the query optimizer work on the same
    TML tree in the same engine. *)

type config = {
  max_rounds : int;     (** maximum reduction/expansion rounds *)
  penalty_limit : int;  (** stop once accumulated penalty reaches this *)
  expand : Expand.config;
  rules : Rewrite.rule list;  (** domain-specific rewrite rules *)
  max_steps : int;            (** reduction fuel per pass *)
  validate : bool;
      (** translation validation (off by default): after every reduction and
          expansion pass, re-check well-formedness ({!Wf.check_app}),
          free-variable preservation (the tree may lose but never acquire
          free identifiers), and the pass's size/cost accounting.  A
          violation raises {!Validation_error}.  Intended for the
          differential test harness ([Tml_check]) and for debugging domain
          rules.  Each pass checks the whole tree. *)
}

(** Raised (only when [validate] is on) when a pass produces an ill-formed
    tree, introduces a free identifier, or mis-reports its accounting. *)
exception Validation_error of string

val default : config

(** [o1] — reduction only (one reduction pass, no inlining): the cheap
    "local" setting. *)
val o1 : config

(** [o2] — the default: reduction plus non-recursive inlining. *)
val o2 : config

(** [o3] — aggressive: additionally unrolls [Y]-bound procedures. *)
val o3 : config

(** [with_rules config rules] adds domain rewriters to [config]. *)
val with_rules : config -> Rewrite.rule list -> config

type report = {
  rounds : int;
  penalty : int;
  stats : Rewrite.stats;
  expansions : int;
  size_before : int;
  size_after : int;
  cost_before : int;
  cost_after : int;
  prov : Tml_obs.Provenance.t;
      (** derivation log of this run; empty unless
          [Tml_obs.Provenance.enabled] was set *)
}

val pp_report : Format.formatter -> report -> unit

(** [optimize_app ?config a] optimizes a TML application to fixpoint
    (or penalty exhaustion) and reports what happened.  Size and cost
    accounting walks the tree ({!Term.size_app}, {!Cost.app_cost}). *)
val optimize_app : ?config:config -> Term.app -> Term.app * report

(** [optimize_value ?config v] optimizes an abstraction (its body) or any
    other value. *)
val optimize_value : ?config:config -> Term.value -> Term.value * report

(** [replay ?config pre log] re-optimizes [pre] under [config] with
    provenance recording forced on and checks the resulting derivation
    log equals [log].  [Ok v'] returns the re-derived optimized term
    (α-equivalent to the original optimization's result — substitution
    mints fresh stamps, so compare with [Term.alpha_equal_value]).
    Derivation logs are deterministic for a given pre-term and pure
    rule set, which is what makes a recorded log a checkable
    explanation rather than free-form notes. *)
val replay : ?config:config -> Term.value -> Tml_obs.Provenance.t -> (Term.value, string) result
