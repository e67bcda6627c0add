module Metrics = Tml_obs.Metrics

let enabled = ref false

(* The system-wide clock lives in the observability library so trace
   timestamps, pass timings and bench measurements agree. *)
let clock = Tml_obs.Trace.clock

(* the ["optimizer"] source's cells, in the order its report lists them *)
let source = "optimizer"
let optimize_calls = Metrics.counter ~source "optimize_calls"
let reduce_passes = Metrics.counter ~source "reduce_passes"
let reduce_s = Metrics.gauge ~source "reduce_s"
let expand_passes = Metrics.counter ~source "expand_passes"
let expand_s = Metrics.gauge ~source "expand_s"
let validate_passes = Metrics.counter ~source "validate_passes"
let validate_s = Metrics.gauge ~source "validate_s"

let fires =
  List.map
    (fun rule -> Metrics.counter ~source ("fires." ^ rule))
    [ "subst"; "remove"; "reduce"; "eta"; "fold"; "case_subst"; "y_remove"; "y_reduce"; "domain" ]

let budget_exhausted = Metrics.counter ~source "budget_exhausted"

type pass =
  | Reduce
  | Expand
  | Validate

let timed pass f =
  if not !enabled then f ()
  else begin
    let passes, secs =
      match pass with
      | Reduce -> (reduce_passes, reduce_s)
      | Expand -> (expand_passes, expand_s)
      | Validate -> (validate_passes, validate_s)
    in
    let t0 = !clock () in
    let finish () =
      Metrics.inc passes;
      Metrics.add_gauge secs (!clock () -. t0)
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let record_fires (s : Rewrite.stats) =
  List.iter2 Metrics.add fires
    [ s.subst; s.remove; s.reduce; s.eta; s.fold; s.case_subst; s.y_remove; s.y_reduce; s.domain ]

let record_call () = Metrics.inc optimize_calls
let record_budget_exhausted () = Metrics.inc budget_exhausted
let register_metrics () = ()
