(** Primitive procedures (section 2.3).

    In TML, most of the "real work" needed to implement source language
    semantics is factored out into primitive procedures which are not part of
    the intermediate language itself.  New primitives can be added to meet
    the needs of more specialized source languages (the query library does
    exactly this).  A primitive descriptor carries the information the paper
    enumerates:

    + a target code generation function — in this reproduction the code
      generator and the two evaluators look primitives up by name in the
      runtime registry of [Tml_vm.Runtime], keeping the core free of any
      dependency on the execution substrate;
    + a meta-evaluation function used by the [fold] rewrite rule;
    + a cost estimation function (instructions on an idealized abstract
      machine) used by the inlining heuristics;
    + a collection of attributes (commutativity, side effect classes, rule
      flags), with worst-case defaults. *)

(** Side effect classes, after Gifford and Lucassen (1986) as cited by the
    paper. *)
type effect_class =
  | Pure      (** no store interaction; freely foldable *)
  | Observer  (** reads the store (array access, size, query evaluation) *)
  | Mutator   (** writes the store (array update, relation update) *)
  | Control   (** manipulates control state (handlers, raise) *)
  | External  (** escapes the system (ccall, I/O) *)

val pp_effect_class : Format.formatter -> effect_class -> unit

type attrs = {
  effects : effect_class;
  commutative : bool;  (** the first two value arguments may be swapped *)
  can_fold : bool;     (** enables the [fold] rewrite rule for this primitive *)
}

(** Worst-case attributes: external effects, not commutative, no folding. *)
val worst_attrs : attrs

type t = {
  name : string;
  value_arity : int option;
      (** number of value arguments; [None] for variadic primitives *)
  cont_arity : int option;
      (** number of continuation arguments, which follow the value
          arguments; [None] when the shape is primitive-specific (["=="],
          ["Y"]) *)
  attrs : attrs;
  base_cost : int;
      (** estimated instructions on an idealized abstract machine *)
  meta_eval : Term.app -> Term.app option;
      (** the [eval] function of the [fold] rule: given an application of
          this primitive, return a simpler equivalent application, or [None] *)
  check_app : Term.app -> (unit, string) result;
      (** well-formedness of a call beyond generic arity checking *)
}

(** [make ~name ...] builds a descriptor with sensible defaults: worst-case
    attributes, cost 1, no meta-evaluation, and a [check_app] derived from
    the declared arities (value arguments must be value-sorted, continuation
    arguments must be continuation variables or [cont] abstractions). *)
val make :
  name:string ->
  ?value_arity:int option ->
  ?cont_arity:int option ->
  ?attrs:attrs ->
  ?base_cost:int ->
  ?meta_eval:(Term.app -> Term.app option) ->
  ?check_app:(Term.app -> (unit, string) result) ->
  unit ->
  t

(** [generic_check ~value_arity ~cont_arity app] is the default argument
    shape check used by [make]. *)
val generic_check :
  value_arity:int option -> cont_arity:int option -> Term.app -> (unit, string) result

(** [is_value_arg v] holds when [v] may appear in a value argument position
    (literal, primitive, value variable, or [proc] abstraction). *)
val is_value_arg : Term.value -> bool

(** [is_cont_arg v] holds when [v] may appear in a continuation argument
    position (continuation variable or [cont] abstraction). *)
val is_cont_arg : Term.value -> bool

(** {1 Registry} *)

(** [register t] adds [t] to the global registry.
    @raise Invalid_argument if a primitive of that name is already registered
    and [override] is false. *)
val register : ?override:bool -> t -> unit

val find : string -> t option
val find_exn : string -> t
val mem : string -> bool
val all : unit -> t list

(** [cost_of_app app] estimates the cost of an application node: the
    registered base cost for primitive calls, a call overhead for everything
    else. *)
val cost_of_app : Term.app -> int
