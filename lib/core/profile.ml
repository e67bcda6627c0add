type t = {
  mutable reduce_s : float;
  mutable expand_s : float;
  mutable validate_s : float;
  mutable reduce_passes : int;
  mutable expand_passes : int;
  mutable validate_passes : int;
  mutable optimize_calls : int;
  mutable budget_exhausted : int;
  fires : Rewrite.stats;
}

let fresh () =
  {
    reduce_s = 0.;
    expand_s = 0.;
    validate_s = 0.;
    reduce_passes = 0;
    expand_passes = 0;
    validate_passes = 0;
    optimize_calls = 0;
    budget_exhausted = 0;
    fires = Rewrite.fresh_stats ();
  }

let global = fresh ()
let enabled = ref false

(* The system-wide clock lives in the observability library so trace
   timestamps, pass timings and bench measurements agree. *)
let clock = Tml_obs.Trace.clock

let reset () =
  let z = fresh () in
  global.reduce_s <- z.reduce_s;
  global.expand_s <- z.expand_s;
  global.validate_s <- z.validate_s;
  global.reduce_passes <- 0;
  global.expand_passes <- 0;
  global.validate_passes <- 0;
  global.optimize_calls <- 0;
  global.budget_exhausted <- 0;
  let f = global.fires in
  f.subst <- 0;
  f.remove <- 0;
  f.reduce <- 0;
  f.eta <- 0;
  f.fold <- 0;
  f.case_subst <- 0;
  f.y_remove <- 0;
  f.y_reduce <- 0;
  f.domain <- 0

type pass =
  | Reduce
  | Expand
  | Validate

let record_pass pass secs =
  match pass with
  | Reduce ->
    global.reduce_s <- global.reduce_s +. secs;
    global.reduce_passes <- global.reduce_passes + 1
  | Expand ->
    global.expand_s <- global.expand_s +. secs;
    global.expand_passes <- global.expand_passes + 1
  | Validate ->
    global.validate_s <- global.validate_s +. secs;
    global.validate_passes <- global.validate_passes + 1

let timed pass f =
  if not !enabled then f ()
  else begin
    let t0 = !clock () in
    let finish () = record_pass pass (!clock () -. t0) in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let record_fires s = Rewrite.add_stats global.fires s
let record_call () = global.optimize_calls <- global.optimize_calls + 1
let record_budget_exhausted () = global.budget_exhausted <- global.budget_exhausted + 1

(* Expose the global profile as a metrics source so [tmlsh :stats]
   prints one merged report. *)
let metrics_snapshot () =
  let t = global in
  let f = t.fires in
  Tml_obs.Metrics.
    [
      ("optimize_calls", I t.optimize_calls);
      ("reduce_passes", I t.reduce_passes);
      ("reduce_s", F t.reduce_s);
      ("expand_passes", I t.expand_passes);
      ("expand_s", F t.expand_s);
      ("validate_passes", I t.validate_passes);
      ("validate_s", F t.validate_s);
      ("fires.subst", I f.Rewrite.subst);
      ("fires.remove", I f.Rewrite.remove);
      ("fires.reduce", I f.Rewrite.reduce);
      ("fires.eta", I f.Rewrite.eta);
      ("fires.fold", I f.Rewrite.fold);
      ("fires.case_subst", I f.Rewrite.case_subst);
      ("fires.y_remove", I f.Rewrite.y_remove);
      ("fires.y_reduce", I f.Rewrite.y_reduce);
      ("fires.domain", I f.Rewrite.domain);
      ("budget_exhausted", I t.budget_exhausted);
    ]

let register_metrics () =
  Tml_obs.Metrics.register_source ~name:"optimizer" ~snapshot:metrics_snapshot ~reset;
  (* the per-rule fire counters ride as their own labelled source, so
     [tmlsh :stats json] attributes optimization work rule by rule *)
  Tml_obs.Metrics.register_source ~name:"rules"
    ~snapshot:(fun () ->
      List.map (fun (name, n) -> name, Tml_obs.Metrics.I n) (Rewrite.fire_counts ()))
    ~reset:Rewrite.reset_fire_counts
