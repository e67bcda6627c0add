(** Profile-guided promotion of hot code units to the compiled closure
    tier ({!Jit}).

    Tier state lives on each {!Instr.unit_code}: its heat (closure
    entries the machine counted) and its compiled form.  The machine's
    [Mclosure] case enters the compiled tier once the unit's heat
    reaches {!call_threshold} while {!enabled} is set; a fresh heap's
    units start cold, and a dropped heap takes its compiled code with
    it.  See docs/TIERS.md. *)

(** master switch for {e policy} promotion; [force_promote] and units
    already compiled work regardless *)
val enabled : bool ref

(** closure entries into one unit before it is compiled (default 32) *)
val call_threshold : int ref

(** [hot u] — the machine's [Mclosure] case: [true] when [u] runs on the
    compiled tier.  Heats [u] while {!enabled} is set and compiles it
    on the entry that reaches {!call_threshold}. *)
val hot : Instr.unit_code -> bool

(** [run ctx c args] applies the machine closure [c] on the compiled
    tier, charging like the machine (an entry counted in [runs]). *)
val run : Runtime.ctx -> Value.mclosure -> Value.t list -> Eval.outcome

(** [force_promote ctx oid] compiles [oid]'s code unit now, bypassing
    the policy; [false] when [oid] is not a compilable stored function
    (η-reduced to a primitive, unresolved free identifiers, not a
    [Func]). *)
val force_promote : Runtime.ctx -> Tml_core.Oid.t -> bool

(** [retire fo] — [fo]'s code is being replaced (a rebinding or an
    in-place re-optimization).  [true], counted as a deopt, when its
    unit ran compiled. *)
val retire : Value.func_obj -> bool

(** [repromote ctx ~was oid] — [oid] now holds re-optimized code that
    replaced [was]: if [was] ran compiled, compile the new code at once
    so a hot function does not re-heat from zero.  Called by
    [Reflect.optimize_inplace]. *)
val repromote : Runtime.ctx -> was:Value.func_obj -> Tml_core.Oid.t -> unit

(** Does nothing: the ["tier"] source's cells ({!Jit.promotions} and
    the rest) are in the registry from the start.  Kept because the
    benchmark's Stanford load calls it. *)
val register_metrics : unit -> unit
