(** Metrics registry: counters, gauges and histograms with optional
    labels, plus adapter "sources" that unify pre-existing stat blocks
    ({!Profile}, [Store_stats], tier counters) behind one
    interface with a single JSON snapshot endpoint. *)

type num = I of int | F of float

(** {1 Owned metrics}

    Creation is idempotent: requesting an existing name (and label set)
    returns the same underlying cell.  Labels render as
    [name{k=v,...}] in snapshots. *)

type counter
type gauge
type histogram

val counter : ?labels:(string * string) list -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : ?labels:(string * string) list -> string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 1] — estimated from a bounded
    reservoir of the most recent observations (last 512), so long-running
    servers report {e current} p50/p99 latency rather than lifetime
    figures.  [0.0] when nothing was observed.  Snapshots include [p50]
    and [p99] per histogram. *)

(** {1 Sources}

    A source exposes an external stats block (a snapshot of key/value
    pairs and a reset action).  Registering an existing name replaces
    the previous source. *)

val register_source :
  name:string -> snapshot:(unit -> (string * num) list) -> reset:(unit -> unit) -> unit

val unregister_source : string -> unit

(** {1 Snapshot / report / reset} *)

(** JSON object
    [{"counters":{...},"gauges":{...},"histograms":{...},"sources":{...}}]
    with names sorted for stable output. *)
val snapshot_json : unit -> string

(** Merged human-readable report of all metrics and sources. *)
val pp_report : Format.formatter -> unit -> unit

(** Prometheus text exposition (format 0.0.4): counters and gauges as
    their own types, histograms as summaries ([quantile="0.5"|"0.99"]
    plus [_sum]/[_count]), sources flattened to gauges.  Metric names
    are sanitized to the Prometheus alphabet ([.] becomes [_]). *)
val prometheus : unit -> string

(** Zero every owned metric and reset every registered source, in one
    pass (sources in name order). *)
val reset_all : unit -> unit
