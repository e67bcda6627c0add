(** The tree-walking CPS evaluator — the reference semantics of TML.

    TML is a call-by-value λ-calculus with store semantics (section 2.1);
    this module implements it directly over terms: applications evaluate
    their function and argument values (values never contain redexes, so
    "evaluation" of arguments is environment lookup and closure building),
    then transfer control.  Every transfer is a tail call, so the evaluator
    runs in constant OCaml stack space; the [Y] primitive ties recursive
    environment knots by patching closure environments.

    The abstract machine ({!Machine}) must agree with this evaluator on all
    programs; the property-based test suite checks exactly that. *)

type outcome =
  | Done of Value.t     (** the normal halt continuation received this value *)
  | Raised of Value.t   (** the error halt continuation received this value *)
  | No_fuel             (** the instruction budget ran out *)
  | Fault of string     (** a runtime fault (ill-typed or ill-formed program) *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_equal : outcome -> outcome -> bool

(** [run_app ctx ~env app] evaluates [app] in [env].  The program finishes
    by invoking one of the [Value.Halt] sentinels (normally passed to the
    entry procedure as its continuations). *)
val run_app : Runtime.ctx -> env:Value.t Tml_core.Ident.Map.t -> Tml_core.Term.app -> outcome

(** [run_proc ctx proc args] applies a [proc] value (a closure, an [Oidv] of
    a function object, ...) to [args] plus the two halt continuations: the
    standard way to run a complete program. *)
val run_proc : Runtime.ctx -> Value.t -> Value.t list -> outcome

(** [eval_value ctx ~env v] evaluates a TML value to a runtime value
    (literals inject, variables look up, abstractions close over [env]). *)
val eval_value : Runtime.ctx -> env:Value.t Tml_core.Ident.Map.t -> Tml_core.Term.value -> Value.t
