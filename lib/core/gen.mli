(** Random generation of well-formed, terminating TML programs.

    Used by the property-based test suite (semantic preservation of the
    rewrite rules, engine agreement, PTML round trips).  Generated
    programs are closed [proc] abstractions of two integer parameters;
    they use integer arithmetic (whose overflow/division exceptions
    exercise the exception continuations), comparisons, case analysis,
    β-redexes, higher-order helper procedures, bounded [Y] loops,
    mutable arrays, and explicit raises — every construct the rewrite
    rules touch.  All loops count down from small literals, so every
    generated program terminates. *)

(** [proc2 rng ~size] generates a closed [proc(a b ce cc)].  [size] steers
    the number of generated operations (roughly linear in tree size). *)
val proc2 : Random.State.t -> size:int -> Term.value

