(* The Stanford suite in-process on one thread (the paper's section 6
   workload): per sweep, every program in a seeded order gets a fresh
   Link.load, Reflect.optimize_all and one run with tiering on.
   Instances are single-use (a program's main mutates its globals), so
   nothing is re-run on an instance.  Profile and Provenance are on, as
   in tmld. *)

open Tml_frontend
module Suite = Tml_stanford.Suite
module Trace = Tml_obs.Trace

(* the classic results, written down independently of the compiler *)
let golden =
  [
    ("perm", "8660");
    ("towers", "4095");
    ("queens", "92");
    ("intmm", "15520");
    ("mm", "6037");
    ("quick", "sorted 0 33696 65505");
    ("bubble", "sorted 0 65505");
    ("tree", "1000 33666033");
    ("fft", "22143");
    ("puzzle", "success 2005");
  ]

let now = Unix.gettimeofday

let init () =
  Tml_core.Profile.clock := Unix.gettimeofday;
  Tml_core.Profile.enabled := true;
  Tml_obs.Provenance.enabled := true;
  (* tiering is tmlc's and tmlsh's default *)
  Tml_vm.Tierup.enabled := true;
  Tml_core.Profile.register_metrics ();
  Tml_vm.Speccache.register_metrics ();
  Tml_vm.Tierup.register_metrics ()

(* set-up: a fresh runtime with the standard library compiled and
   linked.  One link takes well under a millisecond, so it is timed over
   a batch. *)
let setup () =
  let batch = 20 in
  let t0 = now () in
  for _ = 1 to batch do
    ignore (Link.load "let spine_setup = 0")
  done;
  (now () -. t0) /. float_of_int batch

type run = { name : string; load_s : float; opt_s : float; run_s : float; steps : int }

let program name =
  Trace.with_span ~cat:"bench" ~args:[ ("program", Trace.Str name) ] "bench.program" @@ fun () ->
  let t0 = now () in
  let prog = Trace.with_span ~cat:"bench" "stanford.load" (fun () -> Link.load (Suite.source name)) in
  let t1 = now () in
  Trace.with_span ~cat:"bench" "stanford.optimize" (fun () ->
      Tml_reflect.Reflect.optimize_all prog.Link.ctx (Link.all_function_oids prog));
  let t2 = now () in
  let r = Trace.with_span ~cat:"bench" "stanford.run" (fun () -> Suite.run_loaded prog) in
  let t3 = now () in
  let ok =
    match r.Suite.outcome with
    | Tml_vm.Eval.Done _ -> String.trim r.Suite.output = List.assoc name golden
    | _ -> false
  in
  let err =
    if ok then None
    else
      Some
        (Format.asprintf "%s: %a, output %S" name Tml_vm.Eval.pp_outcome r.Suite.outcome
           (String.trim r.Suite.output))
  in
  ({ name; load_s = t1 -. t0; opt_s = t2 -. t1; run_s = t3 -. t2; steps = r.Suite.steps }, err)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* sweeps are a fixed amount of work for a given duration: the drift
   of optimizer time and memory across sweeps then repeats run to run *)
let sweep_s = 2.0

let sweeps_for ~smoke seconds = if smoke then 1 else max 1 (int_of_float (seconds /. sweep_s))

let snapshot () = Sjson.parse (Tml_obs.Metrics.snapshot_json ())

let ms = 1000.

(* traced phase: self times of the bench's own spans around the three
   layers of each program *)
let trace_metrics events =
  let spans, _ = Spans.of_events events in
  let programs = List.filter (fun s -> s.Spans.name = "bench.program") spans in
  let child name p =
    List.fold_left
      (fun a s -> if s.Spans.name = name && s.Spans.parent = p.Spans.id then a +. Spans.dur s else a)
      0. spans
  in
  let mean f = Quant.mean (List.map f programs) /. ms in
  let total = mean Spans.dur in
  let layers = mean (fun p -> child "stanford.load" p +. child "stanford.optimize" p +. child "stanford.run" p) in
  [
    ("trace.link_ms", mean (child "stanford.load"));
    ("trace.optimize_ms", mean (child "stanford.optimize"));
    ("trace.run_ms", mean (child "stanford.run"));
    ("trace.residual_pct", 100. *. Quant.ratio (total -. layers) total);
  ]

(* [trace] is the untraced twin's throughput when this phase is the
   traced one *)
let measure ~seed ~sweeps ~puzzle ~trace =
  let names = List.filter (fun n -> puzzle || n <> "puzzle") Suite.all_names in
  let rng = Random.State.make [| seed; Hashtbl.hash "stanford" |] in
  let before = snapshot () in
  let runs = ref [] and errors = ref [] and setup_times = ref [] in
  let (), events =
    Spans.capture (trace <> None) (fun () ->
        for _ = 1 to sweeps do
          (* one set-up before each sweep: spread over the run, their
             median does not hang on a single slow second of the host *)
          setup_times := setup () :: !setup_times;
          List.iter
            (fun name ->
              let r, err = program name in
              runs := r :: !runs;
              Option.iter (fun e -> errors := e :: !errors) err)
            (shuffle rng names)
        done)
  in
  let after = snapshot () in
  let runs = List.rev !runs in
  let n_sweeps = float_of_int sweeps and n_ops = float_of_int (List.length runs) in
  let of_prog name f = List.filter_map (fun r -> if r.name = name then Some (f r) else None) runs in
  let geo f = Quant.geomean (List.map (fun n -> Quant.median (of_prog n f)) names) in
  let op_ms = List.map (fun r -> (r.load_s +. r.opt_s +. r.run_s) *. ms) runs in
  (* Latency percentiles are taken over the programs, one median each.
     Over all samples, every program holds exactly 1/10 of them, so p90
     would sit on the edge between puzzle and the rest and read whichever
     op a collection pause happened to hit. *)
  let program_ms = List.map (fun n -> Quant.median (of_prog n (fun r -> (r.load_s +. r.opt_s +. r.run_s) *. ms))) names in
  let steps = float_of_int (List.fold_left (fun a r -> a + r.steps) 0 runs) in
  let src name key snap = Sjson.(to_float (path [ "sources"; name; key ] snap)) in
  let d name key = src name key after -. src name key before in
  let per_sweep x = Quant.ratio x n_sweeps in
  let rule_fires snap =
    List.fold_left (fun a (_, v) -> a +. Sjson.to_float v) 0. Sjson.(to_assoc (path [ "sources"; "rules" ] snap))
  in
  let memo_hits = d "optimizer" "memo_hits" and memo_misses = d "optimizer" "memo_misses" in
  let hits = d "speccache" "hits" and misses = d "speccache" "misses" in
  let ops_per_s = Quant.ratio n_ops (List.fold_left ( +. ) 0. op_ms /. ms) in
  (* one row per program of the suite; a program left out of the sweep
     (puzzle in the smoke run) reads 0 *)
  let per_program =
    List.concat_map
      (fun n ->
        [
          (Printf.sprintf "stanford.%s.compile_ms" n, Quant.median (of_prog n (fun r -> (r.load_s +. r.opt_s) *. ms)));
          (Printf.sprintf "stanford.%s.run_ms" n, Quant.median (of_prog n (fun r -> r.run_s *. ms)));
          (Printf.sprintf "stanford.%s.steps" n, Quant.median (of_prog n (fun r -> float_of_int r.steps)));
        ])
      Suite.all_names
  in
  let metrics =
    [
      ("ops_per_s", ops_per_s);
      ("p50_ms", Quant.percentile program_ms 50.);
      ("p90_ms", Quant.percentile program_ms 90.);
      ("setup_s", Quant.median !setup_times);
      ("peak_rss_mb", Proc.peak_rss_mb 0);
      ("vm_steps_per_op", Quant.ratio steps n_ops);
      ("compile_ms", geo (fun r -> (r.load_s +. r.opt_s) *. ms));
      ("run_ms", geo (fun r -> r.run_s *. ms));
      ("vm_steps", per_sweep steps);
      ("error_rate", Quant.ratio (float_of_int (List.length !errors)) n_ops);
      ("tl.link_ms", geo (fun r -> r.load_s *. ms));
      ("reflect.optimize_all_ms", geo (fun r -> r.opt_s *. ms));
      ("optimizer.reduce_ms", per_sweep (d "optimizer" "reduce_s" *. ms));
      ("optimizer.expand_ms", per_sweep (d "optimizer" "expand_s" *. ms));
      ("optimizer.memo_hit_ratio", Quant.ratio memo_hits (memo_hits +. memo_misses));
      ("optimizer.budget_exhausted", per_sweep (d "optimizer" "budget_exhausted"));
      ("rules.fires", per_sweep (rule_fires after -. rule_fires before));
      ("speccache.hit_ratio", Quant.ratio hits (hits +. misses));
      ("hashcons.table", src "optimizer" "hashcons.table" after);
      ("tier.promotions", per_sweep (d "tier" "promotions"));
      ("tier.deopts", per_sweep (d "tier" "deopts"));
      ("tier.rejections", per_sweep (d "tier" "rejections"));
      ("optimizer.optimize_calls_per_op", Quant.ratio (d "optimizer" "optimize_calls") n_ops);
      ("tier.runs_per_op", Quant.ratio (d "tier" "runs") n_ops);
      ("vm.steps_per_op", Quant.ratio steps n_ops);
    ]
    @ per_program
  in
  let outcome =
    {
      Outcome.correct = !errors = [];
      attempted = List.length runs;
      failed = List.length !errors;
      samples = [ ("all", List.length runs); ("per_program", sweeps) ];
      metrics;
      errors = List.rev !errors;
    }
  in
  let trace =
    match trace with
    | None -> []
    | Some untraced_ops_per_s ->
      ("trace.overhead_ratio", Quant.ratio untraced_ops_per_s ops_per_s)
      :: ("trace.dropped_spans", Spans.dropped ())
      :: trace_metrics events
  in
  { Outcome.outcome; ops_per_s; trace; chrome = events }
