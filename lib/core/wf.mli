(** Well-formedness of TML programs (section 2.2, constraints 1-5).

    The checks implemented here:

    - {b arity and sort of applications} (constraints 1 and 2): a known
      primitive must be applied according to its registered calling
      convention; a directly applied abstraction must receive one argument
      per parameter with matching sorts; a procedure variable must receive
      its value arguments followed by exactly two continuations; a
      continuation variable receives value arguments only;
    - {b continuations may not escape} (constraint 3): continuation
      variables and [cont] abstractions never occur in value argument
      positions;
    - {b unique binding rule} (constraint 4): no identifier is bound by two
      parameter lists;
    - {b proc/cont shape} (constraint 5): an abstraction used as a value
      takes exactly two continuation parameters, in trailing position; an
      abstraction used as a continuation takes none.  The binder abstraction
      of a [Y] application is validated by the primitive's own check.

    The rewrite rules never violate these constraints; the property-based
    test suite verifies this on generated terms. *)

type error = {
  message : string;
  context : string;  (** printed form of the offending node *)
}

val pp_error : Format.formatter -> error -> unit

(** [check_app ?free_allowed app] checks a complete TML program body.
    [free_allowed] (default: accept any) restricts which identifiers may
    occur free — compilation units legitimately have free variables (their
    imports), fully linked terms have none. *)
val check_app : ?free_allowed:(Ident.t -> bool) -> Term.app -> (unit, error list) result

(** [check_value ?free_allowed v] checks a value (typically a [proc]
    abstraction). *)
val check_value : ?free_allowed:(Ident.t -> bool) -> Term.value -> (unit, error list) result

val well_formed_value : Term.value -> bool
