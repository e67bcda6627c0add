(** Optimizer pass profiling.

    A global accumulator of per-pass wall-clock time (reduce vs expand vs
    validate) and rule-fire counters.  Off by default — the optimizer only
    touches the clock when [enabled] is set, so the hot path pays a single
    ref read otherwise.  [tmlc --profile] and [tmlsh :stats] render the
    summary table. *)

type t = {
  mutable reduce_s : float;
  mutable expand_s : float;
  mutable validate_s : float;
  mutable reduce_passes : int;
  mutable expand_passes : int;
  mutable validate_passes : int;
  mutable optimize_calls : int;
  mutable budget_exhausted : int;
      (** optimize calls whose expansion phase was truncated by the
          penalty budget (see [Optimizer.config.penalty_limit]) *)
  fires : Rewrite.stats;
}

val global : t

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

(** [timed pass f] runs [f ()], charging its duration to [pass] in
    [global] when [enabled] (also on exception). *)
val timed : pass -> (unit -> 'a) -> 'a

val record_pass : pass -> float -> unit
val record_fires : Rewrite.stats -> unit
val record_call : unit -> unit
val record_budget_exhausted : unit -> unit

(** Render the summary table (pass times, rule fires, budget
    exhaustions). *)
val pp : Format.formatter -> t -> unit

(** Register the global profile as the ["optimizer"] source in the metrics registry; resetting the
    registry then resets the profile too. *)
val register_metrics : unit -> unit
