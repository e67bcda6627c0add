(** Optimizer pass profiling.

    A global accumulator of per-pass wall-clock time (reduce vs expand vs
    validate) and rule-fire counters, read through the metrics registry
    (see {!register_metrics}).  Off by default — the optimizer only
    touches the clock when [enabled] is set, so the hot path pays a
    single ref read otherwise.  [tmlc --profile] and [tmlsh :stats] print
    the registry's report. *)

(** Master switch: when false, [timed] runs its thunk untimed and the
    optimizer skips all recording. *)
val enabled : bool ref

(** The time source, in seconds: an alias of [Tml_obs.Trace.clock]
    (wall-clock [Unix.gettimeofday] by default). *)
val clock : (unit -> float) ref

val reset : unit -> unit

type pass =
  | Reduce
  | Expand
  | Validate

(** [timed pass f] runs [f ()], charging its duration to [pass] when
    [enabled] (also on exception). *)
val timed : pass -> (unit -> 'a) -> 'a

val record_fires : Rewrite.stats -> unit
val record_call : unit -> unit
val record_budget_exhausted : unit -> unit

(** Register the profile as the ["optimizer"] source in the metrics
    registry (optimize calls, per-pass runs and seconds, fires per
    built-in rule as [fires.*], and [budget_exhausted]: optimize calls
    whose expansion phase was truncated by the penalty budget, see
    [Optimizer.config.penalty_limit]), and the per-rule fire counters as
    the ["rules"] source; resetting the registry then resets both. *)
val register_metrics : unit -> unit
