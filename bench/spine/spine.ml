(* spine — the benchmark: three tmld session workloads and the Stanford
   suite, end-to-end metrics plus a per-layer breakdown (README.md).

     spine.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1|DIR]
               [--json FILE] [--smoke]
     spine.exe compare BASE.json... -- NEW.json...

   With one --workload the run happens in this process and the last
   line of standard output is the result object; with several (or none:
   all four) each workload runs in a fresh child process and the results
   are merged.  --trace 0 reports the end-to-end metrics, --trace 1 the
   per-layer ones (an untraced and a traced phase, half the time each);
   --trace DIR runs every workload both ways and writes one merged
   Chrome trace per workload into DIR.  Metric names, units, bounds and
   the default duration come from BENCHMARK.json, read from the working
   directory (the repository root). *)

open Tml_spine

type spec = {
  run_seconds : float;
  workloads : string list;
  e2e : Compare.metric list;
  layer : Compare.metric list;
}

let load_spec () =
  let doc = Sjson.read_file "BENCHMARK.json" in
  let metric m =
    {
      Compare.name = Sjson.(to_string (member "name" m));
      unit_ = Sjson.(to_string (member "unit" m));
      lower = Sjson.(to_string (member "better" m)) = "lower";
      bound = Sjson.(to_float (member "bound" m));
    }
  in
  {
    run_seconds = Sjson.(to_float (member "run_seconds" doc));
    workloads = List.map (fun w -> Sjson.(to_string (member "name" w))) Sjson.(to_list (member "workloads" doc));
    e2e = List.map metric Sjson.(to_list (member "end_to_end" doc));
    layer = List.map metric Sjson.(to_list (member "per_layer" doc));
  }

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : string;  (* "0", "1" or a directory *)
  mutable json : string option;
  mutable smoke : bool;
}

let usage =
  "usage: spine.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1|DIR] [--json FILE]\n\
  \                 [--smoke]\n\
  \       spine.exe compare BASE.json... -- NEW.json..."

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("spine: " ^ s); exit 2) fmt

(* the build tree puts tmld two levels above this executable *)
let tmld () = Filename.concat (Filename.dirname Sys.executable_name) "../../bin/tmld.exe"

(* tmld stores, sockets and child results; emptied as runs end *)
let workdir = ".bench_build/spine"

let parse_opts args =
  let o =
    { workloads = []; seed = 1996; seconds = None; trace = "0"; json = None; smoke = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workloads <- o.workloads @ [ w ]; go rest
    | "--seed" :: n :: rest ->
      o.seed <- (match int_of_string_opt n with Some n -> n | None -> die "bad --seed %s" n);
      go rest
    | "--seconds" :: s :: rest ->
      o.seconds <- (match float_of_string_opt s with Some s when s > 0. -> Some s | _ -> die "bad --seconds %s" s);
      go rest
    | "--trace" :: t :: rest -> o.trace <- t; go rest
    | "--json" :: f :: rest -> o.json <- Some f; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | a :: _ -> die "unexpected argument %s\n%s" a usage
  in
  go args;
  o

let is_server = function "read-point" | "ingest" | "mixed" -> true | _ -> false
let is_trace_metric name = String.length name > 6 && String.sub name 0 6 = "trace."

(* --- one workload, in this process ----------------------------------- *)

type result = {
  workload : string;
  outcome : Outcome.t;  (* every declared metric, 0 where it does not apply *)
  measured : string list;  (* the metrics this workload measured itself *)
  traced : bool;
}

let with_unit spec name =
  match List.find_opt (fun m -> m.Compare.name = name) (spec.e2e @ spec.layer) with
  | Some m -> m.Compare.unit_
  | None -> die "metric %s is produced but not declared in BENCHMARK.json" name

(* Every declared metric is reported by every workload; one that does
   not apply to a workload (a commit latency on read-point) reads 0. *)
let complete spec (o : Outcome.t) =
  List.iter (fun (n, _) -> ignore (with_unit spec n)) o.Outcome.metrics;
  {
    o with
    Outcome.metrics =
      List.map (fun m -> (m.Compare.name, Outcome.metric o m.Compare.name)) (spec.e2e @ spec.layer);
  }

let run_one spec o ~seconds workload =
  let dir = Filename.concat workdir (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Proc.workdirs := dir :: !Proc.workdirs;
  let warmup = if o.smoke then 0.3 else 2.0 in
  let traced = o.trace <> "0" in
  let setups = if o.smoke || traced then 1 else 5 in
  (* a traced run spends half its time untraced, as the overhead base *)
  let seconds = if traced then seconds /. 2. else seconds in
  let measure trace =
    if is_server workload then
      Server_load.measure ~exe:(tmld ()) ~dir ~workload ~seed:o.seed ~seconds ~warmup ~setups ~trace
    else begin
      Stanford_load.init ();
      Stanford_load.measure ~seed:o.seed ~sweeps:(Stanford_load.sweeps_for ~smoke:o.smoke seconds)
        ~puzzle:(not o.smoke) ~trace
    end
  in
  let plain = measure None in
  let outcome =
    if not traced then plain.Outcome.outcome
    else begin
      let tr = measure (Some plain.Outcome.ops_per_s) in
      if o.trace <> "1" then begin
        Proc.mkdir_p o.trace;
        Sjson.write_file
          (Filename.concat o.trace (workload ^ ".json"))
          (Sjson.Obj [ ("traceEvents", Sjson.Arr tr.Outcome.chrome); ("displayTimeUnit", Sjson.Str "ms") ])
      end;
      Outcome.with_trace plain tr
    end
  in
  Proc.rm_rf dir;
  { workload; outcome = complete spec outcome; measured = List.map fst outcome.Outcome.metrics; traced }

(* --- reporting ------------------------------------------------------- *)

let metrics_json spec names (o : Outcome.t) =
  Sjson.Obj
    (List.map
       (fun n ->
         (n, Sjson.Obj [ ("value", Sjson.Num (Outcome.metric o n)); ("unit", Sjson.Str (with_unit spec n)) ]))
       names)

let result_json spec ~seed ~seconds r =
  let o = r.outcome in
  Sjson.Obj
    [
      ("workload", Sjson.Str r.workload);
      ("seed", Sjson.Num (float_of_int seed));
      ("seconds", Sjson.Num seconds);
      ("traced", Sjson.Bool r.traced);
      ("correct", Sjson.Bool o.Outcome.correct);
      ("attempted", Sjson.Num (float_of_int o.Outcome.attempted));
      ("failed", Sjson.Num (float_of_int o.Outcome.failed));
      ("samples", Sjson.Obj (List.map (fun (k, n) -> (k, Sjson.Num (float_of_int n))) o.Outcome.samples));
      ("errors", Sjson.Arr (List.map (fun e -> Sjson.Str e) o.Outcome.errors));
      ("metrics", metrics_json spec (List.map fst o.Outcome.metrics) o);
      ("measured", Sjson.Arr (List.map (fun n -> Sjson.Str n) r.measured));
    ]

let result_of_json j =
  let o =
    {
      Outcome.correct = Sjson.(member "correct" j) = Sjson.Bool true;
      attempted = Sjson.(to_int (member "attempted" j));
      failed = Sjson.(to_int (member "failed" j));
      samples = List.map (fun (k, v) -> (k, Sjson.to_int v)) Sjson.(to_assoc (member "samples" j));
      metrics = List.map (fun (k, v) -> (k, Sjson.(to_float (member "value" v)))) Sjson.(to_assoc (member "metrics" j));
      errors = List.map Sjson.to_string Sjson.(to_list (member "errors" j));
    }
  in
  {
    workload = Sjson.(to_string (member "workload" j));
    outcome = o;
    measured = List.map Sjson.to_string Sjson.(to_list (member "measured" j));
    traced = Sjson.(member "traced" j) = Sjson.Bool true;
  }

let print_result spec ~values r =
  let o = r.outcome in
  Printf.printf "== %s%s: %s, %d attempted, %d failed\n" r.workload
    (if r.traced then " (traced)" else "")
    (if o.Outcome.correct then "correct" else "INCORRECT")
    o.Outcome.attempted o.Outcome.failed;
  Printf.printf "   samples: %s\n"
    (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) o.Outcome.samples));
  List.iter (fun e -> Printf.printf "   error: %s\n" e) o.Outcome.errors;
  let section title ms =
    if values then begin
    Printf.printf "   -- %s\n" title;
    List.iter
      (fun m ->
        if r.traced || not (is_trace_metric m.Compare.name) then
          Printf.printf "   %-32s %16.6f %s\n" m.Compare.name (Outcome.metric o m.Compare.name) m.Compare.unit_)
      ms
    end
  in
  section "end to end" spec.e2e;
  section "per layer" spec.layer;
  flush stdout

(* --- child orchestration ---------------------------------------------- *)

let run_child o ~seconds ~trace workload =
  Proc.mkdir_p workdir;
  let json = Filename.concat workdir (Printf.sprintf "%s-%d.result.json" workload (Unix.getpid ())) in
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace; "--json"; json ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  (* the child's report is read back from its JSON file; its own listing
     would repeat the table printed at the end *)
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  let r = if Sys.file_exists json then Some (result_of_json (Sjson.read_file json)) else None in
  (try Sys.remove json with Sys_error _ -> ());
  match (status, r) with
  | Unix.WEXITED (0 | 1), Some r -> r
  | _ -> die "workload %s did not produce a result" workload

let main_run spec o =
  let seconds = match o.seconds with Some s -> s | None -> if o.smoke then 1. else spec.run_seconds in
  let workloads = if o.workloads = [] then spec.workloads else o.workloads in
  List.iter (fun w -> if not (List.mem w spec.workloads) then die "unknown workload %s" w) workloads;
  match workloads with
  | [ w ] ->
    (* in-process: the result object is the last line of output *)
    let r = run_one spec o ~seconds w in
    print_result spec ~values:true r;
    Option.iter (fun f -> Sjson.write_file f (result_json spec ~seed:o.seed ~seconds r)) o.json;
    let names = List.map (fun m -> m.Compare.name) (if r.traced then spec.layer else spec.e2e) in
    let out = r.outcome in
    print_endline
      (Sjson.to_json
         (Sjson.Obj
            [
              ("correct", Sjson.Bool out.Outcome.correct);
              ("attempted", Sjson.Num (float_of_int out.Outcome.attempted));
              ("failed", Sjson.Num (float_of_int out.Outcome.failed));
              ("metrics", metrics_json spec names out);
            ]));
    if out.Outcome.correct then 0 else 1
  | _ ->
    (* each workload untraced, then traced when asked: end-to-end
       numbers never come from a traced process *)
    let results =
      List.concat_map
        (fun w ->
          let plain = run_child o ~seconds ~trace:"0" w in
          if o.trace = "0" then [ plain ] else [ plain; run_child o ~seconds ~trace:o.trace w ])
        workloads
    in
    (* a smoke run checks outputs and metric names, not values *)
    List.iter (print_result spec ~values:(not o.smoke)) results;
    (* every declared metric must be measured by some workload *)
    let measured = List.concat_map (fun r -> r.measured) results in
    let missing =
      List.filter
        (fun m -> not (List.mem m.Compare.name measured))
        (spec.e2e @ List.filter (fun m -> o.trace <> "0" || not (is_trace_metric m.Compare.name)) spec.layer)
    in
    List.iter (fun m -> Printf.printf "error: no workload measured %s\n" m.Compare.name) missing;
    Option.iter
      (fun f ->
        Sjson.write_file f
          (Sjson.Obj
             [
               ("seed", Sjson.Num (float_of_int o.seed));
               ("seconds", Sjson.Num seconds);
               ("runs", Sjson.Arr (List.map (result_json spec ~seed:o.seed ~seconds) results));
             ]))
      o.json;
    if missing = [] && List.for_all (fun r -> r.outcome.Outcome.correct) results then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit through at_exit so tmld children are reaped *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  Tml_obs.Trace.clock := Unix.gettimeofday;
  Tml_obs.Trace.tid_source := (fun () -> Thread.id (Thread.self ()));
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "compare" :: rest ->
      let rec split acc = function
        | "--" :: fresh -> (List.rev acc, fresh)
        | x :: rest -> split (x :: acc) rest
        | [] -> die "compare needs BASE.json... -- NEW.json...\n%s" usage
      in
      let base, fresh = split [] rest in
      if base = [] || fresh = [] then die "%s" usage;
      Compare.run ~metrics:(load_spec ()).e2e ~base ~fresh
    | _ -> main_run (load_spec ()) (parse_opts args)
  in
  exit code
