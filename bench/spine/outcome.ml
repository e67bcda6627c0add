(* What one measured phase of a workload yields. *)

type t = {
  correct : bool;  (** every checked output matched *)
  attempted : int;
  failed : int;  (** Error, Busy, Conflict and wrong results *)
  samples : (string * int) list;  (** latency samples behind each percentile family *)
  metrics : (string * float) list;
  errors : string list;  (** the first few failure messages *)
}

let metric t name = match List.assoc_opt name t.metrics with Some v -> v | None -> 0.

type phase = {
  outcome : t;
  ops_per_s : float;
  trace : (string * float) list;  (** trace.* self times, traced phases only *)
  chrome : Sjson.t list;  (** the phase's spans as Chrome events, traced phases only *)
}

(* an untraced phase's numbers with its traced twin's trace.* metrics *)
let with_trace plain traced =
  let o = plain.outcome and t = traced.outcome in
  {
    o with
    metrics = o.metrics @ traced.trace;
    correct = o.correct && t.correct;
    attempted = o.attempted + t.attempted;
    failed = o.failed + t.failed;
    errors = o.errors @ t.errors;
  }
