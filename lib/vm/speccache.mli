(** What remains of the specialization cache, which is deleted: a
    [register_metrics] that registers nothing, kept for the benchmark
    harness that still calls it ([bench/spine/stanford_load.ml]).  A
    missing ["speccache"] source reads 0 there.  Derived optimizer state
    now lives on the function object it describes
    ([Value.func_obj.fo_summary]); see docs/ANALYSIS.md. *)

val register_metrics : unit -> unit
