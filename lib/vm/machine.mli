(** The abstract machine interpreter.

    Executes the code produced by {!Compile}.  Control transfer is always a
    tail call, so the interpreter is a flat fetch-execute loop; inlined
    continuation blocks continue within the current frame.  The instruction
    and cost accounting matches the idealized-abstract-machine cost model of
    the primitive descriptors (section 2.3, item 3): this counter is the
    measure reported by the Stanford-suite experiments E1/E2. *)

(** [apply ctx f args] applies a machine closure, block, function object,
    primitive value or halt sentinel. *)
val apply : Runtime.ctx -> Value.t -> Value.t list -> Eval.outcome

(** [run_proc ctx proc args] applies [proc] to [args] plus the two halt
    continuations. *)
val run_proc : Runtime.ctx -> Value.t -> Value.t list -> Eval.outcome

(** [run_abs ctx abs args] compiles a closed [proc] abstraction and runs
    it. *)
val run_abs : Runtime.ctx -> Tml_core.Term.abs -> Value.t list -> Eval.outcome
