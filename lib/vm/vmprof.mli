(** Sampling step profiler for the abstract machine.

    Wall-clock profilers need signals and symbolization; the VM already
    has a better unit — the abstract instruction counter every engine
    charges identically.  This profiler attributes the {e step deltas}
    between successive function applications to the function that was
    running, split by execution tier, so a dump shows exactly where a
    workload's [vm.run_steps] went.  The disabled fast path is one ref
    read per application.

    Attribution is flat (self-cost per function, not a call tree): the
    machine is CPS-driven, so there is no stack to walk.  The collapsed
    output still loads in flamegraph tools as a two-level
    [tier;function] flame.

    Concurrency: samples are recorded under whatever serializes VM
    execution (the server's eval lock; single-threaded CLIs), so the
    recorder itself takes no lock on the hot path. *)

val enabled : bool ref
(** master switch; off by default *)

val note_apply : Runtime.ctx -> tier:string -> name:string -> unit
(** called by the machine at each stored-function application: closes
    the attribution window of the previously running function (same
    [ctx] only) and opens one for this function.  Samples are keyed by
    tier and function name, so the table grows with the distinct
    functions run, not with the function objects: every Eval's fresh
    expression function adds to one row *)

val flush : Runtime.ctx -> unit
(** attribute any trailing steps after a run completes *)

val reset : unit -> unit
(** drop all samples and the open attribution window *)

type sample = {
  vp_key : string;  (** the function's name *)
  vp_tier : string;  (** ["machine"] or ["tiered"] *)
  vp_steps : int;  (** abstract instructions attributed *)
  vp_calls : int;
}

val samples : unit -> sample list
(** descending by steps *)

val total_steps : unit -> int

val collapsed : unit -> string
(** collapsed-stack text, one [tier;name count] line per sample,
    descending by steps — pipe into [flamegraph.pl] *)

val pp : Format.formatter -> unit -> unit
(** human-readable table with percentages *)
