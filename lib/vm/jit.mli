(** Closure-compiling execution tier ("template compilation").

    Translates a unit's bytecode into a tree of native OCaml closures
    operating on the same {!Value.t} representation as the abstract
    machine — same closures, same continuation blocks, same abstract
    instruction charges at the same points, so step counts and fuel
    behaviour are observably identical to {!Machine}.  Values flow
    freely between tiers; anything the compiled tier cannot handle
    escapes to the interpreter through {!escape_apply}.

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

(** [call_value cu ctx f args] is the compiled tier's full applicator,
    mirroring [Machine.apply] case by case (exposed for tests). *)
val call_value : cunit -> Runtime.ctx -> Value.t -> Value.t list -> Eval.outcome

(** Full applicator escape hatch into the interpreter; installed by
    {!Machine} at load time. *)
val escape_apply : (Runtime.ctx -> Value.t -> Value.t list -> Eval.outcome) ref

(** number of units compiled since process start (monotonic) *)
val compiled_units : unit -> int

(** Invalidate every per-site inline cache of resolved [Oidv] callees.
    {!Tierup} calls this on speccache invalidation, which may change a
    function's code without replacing its heap slot, so a cached
    compiled entry can never outlive the binding it was resolved from. *)
val invalidate_sites : unit -> unit
