(** Closure-compiling execution tier ("template compilation").

    Translates a unit's bytecode into a tree of native OCaml closures
    operating on the same {!Value.t} representation as the abstract
    machine — same closures, same continuation blocks, same abstract
    instruction charges at the same points, so step counts and fuel
    behaviour are observably identical to {!Machine}.  Values flow
    freely between tiers; anything the compiled tier cannot handle
    escapes to the interpreter through {!escape_apply}.

    Call sites and array primitives keep per-site inline caches keyed
    by the heap's {!Value.Heap.generation} alone, and fill them in
    store-backed heaps too, since reads fire no hook.  A rebinding or a
    re-optimization installs a new function object, which moves the
    generation; compiled writes report themselves
    ({!Value.Heap.note_write}).

    Promotion policy lives in {!Tierup}; this module is the mechanism.
    See docs/TIERS.md. *)

type cunit
(** a compiled unit, kept in its {!Instr.unit_code}'s [compiled] slot *)

(** [compile_unit u] returns the compiled form of [u], compiling at most
    once per physical unit and storing it in [u]'s slot. *)
val compile_unit : Instr.unit_code -> cunit

(** [is_compiled u] — [u]'s slot holds its compiled form *)
val is_compiled : Instr.unit_code -> bool

(** [apply_func cu ~fn ~env ctx args] applies function [fn] of the
    compiled unit under environment [env] — the compiled tier's
    equivalent of applying an [Mclosure], including its charge. *)
val apply_func :
  cunit -> fn:int -> env:Value.t array -> Runtime.ctx -> Value.t list -> Eval.outcome

(** Full applicator escape hatch into the interpreter; installed by
    {!Machine} at load time. *)
val escape_apply : (Runtime.ctx -> Value.t -> Value.t list -> Eval.outcome) ref

(** number of units compiled since process start or the last
    {!reset_compiled_units} *)
val compiled_units : unit -> int

val reset_compiled_units : unit -> unit
