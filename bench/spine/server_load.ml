(* The three tmld workloads: a closed loop of two blocking sessions on
   two threads, zero think time, against a freshly seeded tmld.

   Every number comes from outside the server: the bench times its own
   Client calls (full sample sets, so percentiles are exact) and reads
   registry deltas from the Stat frame tmld already serves — counters,
   histogram counts and sums, never the server's 512-sample reservoir
   percentiles. *)

module Client = Tml_server.Client
module Trace = Tml_obs.Trace

let rows = 10_000

(* one Eval may allocate at most one 65 536-OID stripe; 5 000 rows stay
   well inside it *)
let chunk = 5_000
let sessions = 2

let mix_of = function
  | "read-point" -> { Opgen.get_pct = 100; put_pct = 0 }
  | "ingest" -> { Opgen.get_pct = 0; put_pct = 100 }
  | "mixed" -> { Opgen.get_pct = 45; put_pct = 45 }
  | w -> invalid_arg ("not a server workload: " ^ w)

let now = Unix.gettimeofday

(* ["- : 1 (in 55069 instructions)\n"] -> [Some 1] *)
let int_result out =
  let prefix = "- : " in
  let lp = String.length prefix in
  if String.length out > lp && String.sub out 0 lp = prefix then
    match String.index_from_opt out lp ' ' with
    | Some j -> int_of_string_opt (String.sub out lp (j - lp))
    | None -> int_of_string_opt (String.trim (String.sub out lp (String.length out - lp)))
  else None

let eval_ok c src =
  match Client.eval c src with
  | Ok out -> out
  | Error msg -> failwith (Printf.sprintf "eval %S failed: %s" src msg)

let commit_ok c =
  match Client.commit c with
  | Ok (Client.Committed _) -> ()
  | Ok (Client.Conflicted { oid }) -> failwith (Printf.sprintf "setup commit conflicted on %d" oid)
  | Error msg -> failwith ("setup commit failed: " ^ msg)

let expect_int c src want =
  let out = eval_ok c src in
  if int_result out <> Some want then
    failwith (Printf.sprintf "setup check %S: want %d, got %S" src want out)

(* Spawn tmld and seed it through one session: the events relation in
   committed chunks, its field-1 index, the optimized point query and
   one private insert target per load session.  Returns the server and
   the still-open seeding session. *)
let setup ~exe ~dir ?trace_jsonl () =
  let p = Proc.spawn ~exe ~dir ?trace_jsonl () in
  let c = Proc.connect p in
  ignore (eval_ok c "let events = relation(tuple(1, 1))");
  commit_ok c;
  let lo = ref 2 in
  while !lo <= rows do
    let hi = min rows (!lo + chunk - 1) in
    ignore
      (eval_ok c
         (Printf.sprintf "do for i = %d upto %d do insert(events, tuple(i, i %% %d)) end end" !lo hi
            Opgen.modulus));
    commit_ok c;
    lo := hi + 1
  done;
  expect_int c "count(events)" rows;
  ignore (eval_ok c "do mkindex(events, 1) end");
  ignore (eval_ok c "let get(k: Int): Int = count(select t from t in events where t.1 == k end)");
  ignore (eval_ok c ":optimize get");
  for s = 0 to sessions - 1 do
    ignore (eval_ok c (Printf.sprintf "let w%d = relation(tuple(0, 0))" s));
    ignore (eval_ok c (Printf.sprintf "do mkindex(w%d, 1) end" s))
  done;
  commit_ok c;
  (p, c)

(* --- one load session ------------------------------------------------ *)

type sample = { kind : string; lat : float; commit_rpc : float }

type session_result = {
  mutable samples : sample list;  (* ops started inside the measured window *)
  mutable attempted : int;
  mutable failed : int;
  mutable acked_puts : int;  (* warm-up included: the durability check counts these *)
  mutable put_objects : int;
  mutable last_end : float;
  mutable errors : string list;
  mutable staged : float;  (* objects the session holds uncommitted at the end *)
}

let new_result () =
  { samples = []; attempted = 0; failed = 0; acked_puts = 0; put_objects = 0; last_end = 0.;
    errors = []; staged = 0. }

(* one operation: [Ok (commit_rpc_seconds, objects)] or [Error why] *)
let exec c ~session ~seq op =
  match op with
  | Opgen.Get k -> (
    match Client.eval c (Printf.sprintf "get(%d)" k) with
    | Ok out when int_result out = Some 1 -> Ok (0., 0)
    | Ok out -> Error (Printf.sprintf "get(%d) returned %S" k out)
    | Error msg -> Error msg)
  | Opgen.Scan v -> (
    let want = Opgen.scan_expected ~rows v in
    match Client.eval c (Printf.sprintf "count(select t from t in events where t.2 == %d end)" v) with
    | Ok out when int_result out = Some want -> Ok (0., 0)
    | Ok out -> Error (Printf.sprintf "scan %d returned %S, want %d" v out want)
    | Error msg -> Error msg)
  | Opgen.Put x -> (
    match Client.eval c (Printf.sprintf "do insert(w%d, tuple(%d, %d)) end" session seq x) with
    | Error msg -> Error msg
    | Ok out when out <> "" -> Error (Printf.sprintf "insert returned %S" out)
    | Ok _ -> (
      let t0 = now () in
      match Client.commit c with
      | Ok (Client.Committed { objects; _ }) -> Ok (now () -. t0, objects)
      | Ok (Client.Conflicted { oid }) -> Error (Printf.sprintf "put conflicted on oid %d" oid)
      | Error msg -> Error msg))

let kind_of = function Opgen.Get _ -> "get" | Opgen.Scan _ -> "scan" | Opgen.Put _ -> "put"

let load_session c r ~gen ~session ~warm_end ~stop_at =
  let seq = ref 0 in
  let continue_ = ref true in
  while !continue_ && now () < stop_at do
    let op = Opgen.next gen in
    (match op with Opgen.Put _ -> incr seq | _ -> ());
    let kind = kind_of op in
    let t0 = now () in
    let result =
      try Trace.with_span ~cat:"bench" ("bench." ^ kind) (fun () -> exec c ~session ~seq:!seq op) with
      | (Client.Client_error _ | Tml_server.Wire.Wire_error _ | Unix.Unix_error _) as e ->
        continue_ := false;
        Error (Printexc.to_string e)
    in
    let t1 = now () in
    (match result with Ok _ when kind = "put" -> r.acked_puts <- r.acked_puts + 1 | _ -> ());
    if t0 >= warm_end then begin
      r.attempted <- r.attempted + 1;
      r.last_end <- t1;
      match result with
      | Ok (commit_rpc, objects) ->
        r.put_objects <- r.put_objects + objects;
        r.samples <- { kind; lat = t1 -. t0; commit_rpc } :: r.samples
      | Error msg ->
        r.failed <- r.failed + 1;
        if List.length r.errors < 5 then r.errors <- msg :: r.errors
    end
  done;
  (* a session that never commits re-encodes this staged set on every
     Eval (the server refreshes its staged-byte figure after each one) *)
  if !continue_ then
    r.staged <- Sjson.(to_float (path [ "session"; "staged_objects" ] (parse (Client.stats c))))

(* --- registry snapshots ---------------------------------------------- *)

type probe = { reg : Sjson.t; server_cpu : float; bench_cpu : float; at : float }

let probe monitor p =
  let reg = Sjson.member "metrics" (Sjson.parse (Client.stats monitor)) in
  { reg; server_cpu = Proc.cpu_s p.Proc.pid; bench_cpu = Proc.self_cpu_s (); at = now () }

let counter reg name = Sjson.(to_float (path [ "counters"; name ] reg))
let hist reg name field = Sjson.(to_float (path [ "histograms"; name; field ] reg))
let source reg src key = Sjson.(to_float (path [ "sources"; src; key ] reg))

(* --- one measured phase ---------------------------------------------- *)

let ms = 1000.

(* tmld's --trace-jsonl stream, reduced to the spans and instants the
   request decomposition joins.  Once a commit has evicted a session's
   cache, one read faults thousands of objects back, each a store_fault
   instant: those are only counted, inside the window [lo, hi) (us). *)
let read_tmld_trace path ~lo ~hi =
  let wanted name =
    List.exists (fun prefix -> String.starts_with ~prefix name) [ "server."; "eval_lock."; "commit." ]
  in
  let kept = ref [] and faults = ref 0 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          List.iter
            (fun ev ->
              match Sjson.(to_string (member "name" ev)) with
              | "store_fault" ->
                let ts = Sjson.(to_float (member "ts" ev)) in
                if ts >= lo && ts < hi then incr faults
              | name -> if wanted name then kept := ev :: !kept)
            (Sjson.parse_all (input_line ic))
        done
      with End_of_file -> ());
  (List.rev !kept, !faults)

(* per-layer self times of a traced phase, from the bench's spans joined
   to tmld's by trace id (ops started before [warm_end] are left out) *)
let trace_metrics ~bench_events ~tmld_events ~warm_end =
  let bench, _ = Spans.of_events bench_events in
  let server, instants = Spans.of_events tmld_events in
  let per_op =
    List.filter_map
      (fun (o, l) -> if o.Spans.t0 >= warm_end *. 1e6 then Some l else None)
      (Spans.decompose ~ops:[ "bench.get"; "bench.put"; "bench.scan" ] ~bench ~server ~instants)
  in
  let mean f = Quant.mean (List.map f per_op) /. ms in
  let total = mean (fun l -> l.Spans.total) in
  [
    ("trace.wire_ms", mean (fun l -> l.Spans.wire));
    ("trace.handler_self_ms", mean (fun l -> l.Spans.handler_self));
    ("trace.lock_wait_ms", mean (fun l -> l.Spans.lock_wait));
    ("trace.lock_hold_ms", mean (fun l -> l.Spans.lock_hold));
    ("trace.commit_submit_ms", mean (fun l -> l.Spans.commit_submit));
    ("trace.commit_group_ms", mean (fun l -> l.Spans.commit_group));
    ("trace.fsync_ms", mean (fun l -> l.Spans.fsync));
    ("trace.residual_pct", 100. *. Quant.ratio (total -. mean Spans.layer_sum) total);
  ]

(* [restart_counts ~exe ~dir acked] restarts tmld on the store and
   checks that every acknowledged put survived: count(w<s>) must be the
   seed row plus session s's acknowledged puts *)
let restart_counts ~exe ~dir acked =
  let p = Proc.spawn ~exe ~dir () in
  let c = Proc.connect p in
  let errs =
    List.concat
      (List.mapi
         (fun s n ->
           let got = int_result (eval_ok c (Printf.sprintf "count(w%d)" s)) in
           if got = Some (1 + n) then []
           else
             [ Printf.sprintf "after restart count(w%d) = %s, want %d" s
                 (match got with Some n -> string_of_int n | None -> "?") (1 + n) ])
         acked)
  in
  Client.close c;
  Proc.stop p;
  errs

(* One phase: [setups] fresh servers, one of them measured (a warm-up,
   the measured window, then for ingest the durability check), the
   others only timed.  [trace] is the untraced twin's throughput when
   this phase is the traced one. *)
let measure ~exe ~dir ~workload ~seed ~seconds ~warmup ~setups ~trace =
  let traced = trace <> None in
  let setup_times = ref [] in
  let timed_setup ?trace_jsonl () =
    Proc.rm_rf dir;
    Proc.mkdir_p dir;
    let t0 = now () in
    let p, c = setup ~exe ~dir ?trace_jsonl () in
    setup_times := (now () -. t0) :: !setup_times;
    (p, c)
  in
  let throwaway () =
    let p, c = timed_setup () in
    Client.close c;
    Proc.stop p
  in
  (* the timed-only set-ups come before and after the measured one, so
     their median spans the run rather than one slow second of the host *)
  let before_n = (setups - 1) / 2 in
  for _ = 1 to before_n do
    throwaway ()
  done;
  let trace_jsonl = if traced then Some (Filename.concat dir "tmld.jsonl") else None in
  let p, monitor = timed_setup ?trace_jsonl () in
  let results = List.init sessions (fun _ -> new_result ()) in
  let warm_end = now () +. warmup in
  let (before, after, peak_rss), bench_events =
    Spans.capture traced (fun () ->
        let clients =
          List.init sessions (fun s -> Client.connect ~client:(Printf.sprintf "spine-%d" s) p.Proc.addr)
        in
        let stop_at = warm_end +. seconds in
        let threads =
          List.mapi
            (fun s (c, r) ->
              let gen = Opgen.create ~seed ~workload ~session:s ~rows (mix_of workload) in
              Thread.create (fun () -> load_session c r ~gen ~session:s ~warm_end ~stop_at) ())
            (List.combine clients results)
        in
        Thread.delay (Float.max 0. (warm_end -. now ()));
        let before = probe monitor p in
        List.iter Thread.join threads;
        let after = probe monitor p in
        let peak_rss = Proc.peak_rss_mb p.Proc.pid in
        List.iter Client.close clients;
        (before, after, peak_rss))
  in
  Client.close monitor;
  Proc.stop p;
  let durable_errors =
    if workload = "ingest" then restart_counts ~exe ~dir (List.map (fun r -> r.acked_puts) results)
    else []
  in
  let wall = List.fold_left (fun a r -> Float.max a r.last_end) warm_end results -. warm_end in
  let tmld_events, object_faults =
    match trace_jsonl with
    | None -> ([], 0)
    | Some f -> read_tmld_trace f ~lo:(warm_end *. 1e6) ~hi:((warm_end +. wall) *. 1e6)
  in
  for _ = before_n + 2 to setups do
    throwaway ()
  done;
  let samples = List.concat_map (fun r -> r.samples) results in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  let of_kind k = List.filter_map (fun s -> if s.kind = k then Some (s.lat *. ms) else None) samples in
  let all = List.map (fun s -> s.lat *. ms) samples in
  let n_ops = float_of_int (List.length samples) in
  let gets = of_kind "get" and puts = of_kind "put" and scans = of_kind "scan" in
  let n_puts = float_of_int (List.length puts) and n_gets = float_of_int (List.length gets) in
  let b = before.reg and a = after.reg in
  let dc name = counter a name -. counter b name in
  let dh name field = hist a name field -. hist b name field in
  let ds src key = source a src key -. source b src key in
  let per_op x = Quant.ratio x n_ops in
  let elapsed = after.at -. before.at in
  let commit_latency_ms =
    Quant.ratio (dh "server.commit_latency_s" "sum" *. ms) (dh "server.commit_latency_s" "count")
  in
  let commit_rpc_ms =
    Quant.mean (List.filter_map (fun s -> if s.kind = "put" then Some (s.commit_rpc *. ms) else None) samples)
  in
  (* time the server accounts for: eval-lock wait and hold, and commits
     from enqueue to seal *)
  let server_accounted_ms =
    per_op ((dh "eval_lock.wait_s" "sum" +. dh "eval_lock.hold_s" "sum" +. dh "server.commit_latency_s" "sum") *. ms)
  in
  let hits = ds "speccache" "hits" and misses = ds "speccache" "misses" in
  let ops_per_s = Quant.ratio n_ops wall in
  let metrics =
    [
      ("ops_per_s", ops_per_s);
      ("p50_ms", Quant.percentile all 50.);
      ("p90_ms", Quant.percentile all 90.);
      ("setup_s", Quant.median !setup_times);
      ("peak_rss_mb", peak_rss);
      ("vm_steps_per_op", per_op (dh "vm.run_steps" "sum"));
      ("get_p50_ms", Quant.percentile gets 50.);
      ("get_p99_ms", Quant.percentile gets 99.);
      ("txn_p50_ms", Quant.percentile puts 50.);
      ("txn_p99_ms", Quant.percentile puts 99.);
      ("scan_p50_ms", Quant.percentile scans 50.);
      ("error_rate", Quant.ratio (float_of_int failed) (float_of_int attempted));
      ("client.rtt_residual_ms", Quant.mean all -. server_accounted_ms);
      ("client.cpu_ms_per_op", per_op ((after.bench_cpu -. before.bench_cpu) *. ms));
      ("server.cpu_util", Quant.ratio (after.server_cpu -. before.server_cpu) elapsed);
      ("server.cpu_ms_per_op", per_op ((after.server_cpu -. before.server_cpu) *. ms));
      ("eval_lock.hold_ms_per_op", per_op (dh "eval_lock.hold_s" "sum" *. ms));
      ("eval_lock.util", Quant.ratio (dh "eval_lock.hold_s" "sum") elapsed);
      ("eval_lock.wait_ms_per_op", per_op (dh "eval_lock.wait_s" "sum" *. ms));
      ("server.conflicts_per_op", per_op (dc "server.conflicts"));
      ("server.busy_per_op", per_op (dc "server.busy"));
      ("commit.latency_ms_per_txn", commit_latency_ms);
      ( "commit.group_wait_ms_per_txn",
        Quant.ratio (dh "commit.group_wait_s" "sum" *. ms) (dh "commit.group_wait_s" "count") );
      ("commit.fsync_amortization", Quant.ratio (dc "server.commits") (dc "server.group_commits"));
      ("commit.outside_ms_per_txn", if n_puts = 0. then 0. else commit_rpc_ms -. commit_latency_ms);
      ("store.bytes_per_put", Quant.ratio (ds "store.log" "file_bytes") n_puts);
      ( "store.objects_per_put",
        Quant.ratio (float_of_int (List.fold_left (fun a r -> a + r.put_objects) 0 results)) n_puts );
      ("store.snapshots_pinned", source a "store.log" "snapshots_pinned");
      ("query.index_probes_per_get", Quant.ratio (ds "query" "index_probes") n_gets);
      ("vm.steps_per_op", per_op (dh "vm.run_steps" "sum"));
      ("optimizer.optimize_calls_per_op", per_op (ds "optimizer" "optimize_calls"));
      ("speccache.hit_ratio", Quant.ratio hits (hits +. misses));
      ("tier.runs_per_op", per_op (ds "tier" "runs"));
      ("query.page_faults_per_op", per_op (ds "query" "page_faults"));
      ("query.inserts_per_put", Quant.ratio (ds "query" "inserts") n_puts);
      ("query.stats_updates_per_put", Quant.ratio (ds "query" "stats_updates") n_puts);
      ("session.staged_objects", Quant.mean (List.map (fun r -> r.staged) results));
    ]
  in
  let outcome =
    {
      Outcome.correct = failed = 0 && durable_errors = [] && attempted > 0;
      attempted;
      failed = failed + List.length durable_errors;
      samples =
        [ ("all", List.length all); ("get", List.length gets); ("txn", List.length puts); ("scan", List.length scans) ];
      metrics;
      errors = durable_errors @ List.concat_map (fun r -> List.rev r.errors) results;
    }
  in
  let trace, chrome =
    match trace with
    | None -> ([], [])
    | Some untraced_ops_per_s ->
      ( ("trace.overhead_ratio", Quant.ratio untraced_ops_per_s ops_per_s)
        :: ("trace.dropped_spans", Spans.dropped ())
        :: ("trace.object_faults_per_op", Quant.ratio (float_of_int object_faults) n_ops)
        :: trace_metrics ~bench_events ~tmld_events ~warm_end,
        Spans.chrome ~bench:bench_events ~server:tmld_events )
  in
  { Outcome.outcome; ops_per_s; trace; chrome }
