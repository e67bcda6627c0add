(** Optimizer pass profiling.

    Per-pass wall-clock time (reduce vs expand vs validate), optimize
    calls and rule-fire counters, kept as the ["optimizer"] source's
    cells in the {!Tml_obs.Metrics} registry: optimize calls, per-pass
    runs and seconds, fires per built-in rule as [fires.*], and
    [budget_exhausted], the optimize calls whose expansion phase the
    penalty budget truncated (see [Optimizer.config.penalty_limit]).
    Off by default — the optimizer only touches the clock when
    [enabled] is set, so the hot path pays a single ref read otherwise.
    [tmlc --profile] and [tmlsh :stats] print the registry's report. *)

(** Master switch: when false, [timed] runs its thunk untimed and the
    optimizer skips all recording. *)
val enabled : bool ref

(** The time source, in seconds: an alias of [Tml_obs.Trace.clock]
    (wall-clock [Unix.gettimeofday] by default). *)
val clock : (unit -> float) ref

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

(** Does nothing: the cells are in the registry from the start.  Kept
    because the benchmark's Stanford load calls it. *)
val register_metrics : unit -> unit
