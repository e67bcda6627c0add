(** Metrics registry: counters, gauges and histograms with optional
    labels, and sources, named blocks of values served together with a
    single JSON snapshot endpoint.  A source is either cells created
    with [~source] where their events happen (the optimizer, the rules,
    the tier, the query layer, the store) or computed from live state
    when a snapshot is taken (the GC, the log, the server). *)

type num = I of int | F of float

(** {1 Owned metrics}

    Creation is idempotent: requesting an existing name (and label set)
    returns the same underlying cell.  Labels render as
    [name{k=v,...}] in snapshots.  A counter or gauge created with
    [~source] is served as a key of that source ([sources.SOURCE.NAME]
    in the snapshot, [SOURCE_NAME] in the Prometheus text), after the
    source's earlier cells, instead of among the counters and gauges. *)

type counter
type gauge
type histogram

val counter : ?source:string -> ?labels:(string * string) list -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?source:string -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit

(** [add_gauge g x] adds [x] to [g]: a gauge that sums (seconds spent) *)
val add_gauge : gauge -> float -> unit

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

(** {1 Computed sources}

    A computed source reports values it derives from live state when a
    snapshot is taken (a snapshot of key/value pairs and a reset
    action); it counts nothing itself.  Registering an existing name
    replaces the previous computed source. *)

val register_source :
  name:string -> snapshot:(unit -> (string * num) list) -> reset:(unit -> unit) -> unit

val unregister_source : string -> unit

val register_gc : unit -> unit
(** register the ["gc"] source: the OCaml runtime's [Gc.quick_stat].
    [minor_words], [promoted_words], [major_words], [minor_collections]
    and [major_collections] count from the last reset; [heap_words] is
    the major heap's size now and [top_heap_words] its peak since the
    process started *)

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

(** Zero every cell, a source's included, and reset every computed
    source, in one pass (sources in name order). *)
val reset_all : unit -> unit
