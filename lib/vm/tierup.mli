(** Profile-guided promotion of hot stored functions to the compiled
    closure tier ({!Jit}), with deoptimization back to the bytecode
    machine on any staleness signal.

    The machine consults {!dispatch} on every [Oidv] application; the
    promotion policy (call counts crossing {!call_threshold} while the
    process shows at least {!min_run_steps} of interpreter work in the
    current run or the [vm.run_steps] histogram, or a warm speccache)
    and the deoptimization protocol (speccache invalidations, heap
    update hooks, per-entry heap/code identity re-validation) are
    described in docs/TIERS.md. *)

(** master switch for {e policy} promotion; [force_promote] and already
    promoted entries work regardless *)
val enabled : bool ref

(** calls to one function before promotion is considered (default 32) *)
val call_threshold : int ref

(** interpreter work (abstract instructions) required before anything is
    promoted (default 10_000) *)
val min_run_steps : int ref

(** [dispatch ctx oid fo] — the machine's call-into-tier hook: [Some
    entry] runs [oid] on the compiled tier, [None] stays on the machine.
    Counts calls, promotes per policy, re-validates promoted entries and
    deoptimizes stale ones. *)
val dispatch :
  Runtime.ctx ->
  Tml_core.Oid.t ->
  Value.func_obj ->
  (Runtime.ctx -> Value.t list -> Eval.outcome) option

(** [force_promote ctx oid] compiles and installs [oid] immediately,
    bypassing the policy; [false] when [oid] is not a compilable stored
    function (η-reduced to a primitive, unresolved free identifiers,
    not a [Func]). *)
val force_promote : Runtime.ctx -> Tml_core.Oid.t -> bool

(** [repromote ctx oid] rebuilds the compiled entry from [oid]'s current
    code if it was promoted before (or is hot); called by
    [Reflect.optimize_inplace] after installing re-optimized code so hot
    functions do not re-heat from zero. *)
val repromote : Runtime.ctx -> Tml_core.Oid.t -> unit

type stats = {
  mutable promotions : int;
  mutable deopts : int;
  mutable runs : int;  (** entries into compiled code from the machine *)
  mutable rejections : int;  (** promotion attempts that failed to compile *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** number of currently promoted functions *)
val promoted_count : unit -> int

(** drop all promotions, call counts and heap watches (counters are
    kept); used by fresh differential-oracle contexts *)
val clear : unit -> unit

(** [forget ~lo ~hi] drops every promotion, call count and dependency
    watch of the OIDs in [lo, hi) — objects a session discarded, whose
    OIDs it will allocate again with no history *)
val forget : lo:int -> hi:int -> unit

(** register the ["tier"] source in the {!Tml_obs.Metrics} registry *)
val register_metrics : unit -> unit
