(* E13 — multi-session group commit under concurrent load.

   For each client count, a fresh tmld server (fsync on, its own store
   and socket under a temp dir) takes [commits_per_client] durable
   commits from every client concurrently.  Client commit latency is
   observed by the server's [server.commit_latency_s] histogram; the
   registry also carries the commit and group-commit counters, so the
   fsync amortization ratio (client commits per physical seal+fsync) is
   read back from the same snapshot surface tmld serves over [Stat].

   Run with [dune exec bench/server_bench.exe]; each phase prints one
   JSON line suitable for BENCH_optimizer.json. *)

module Server = Tml_server.Server
module Client = Tml_server.Client
module Wire = Tml_server.Wire
module Metrics = Tml_obs.Metrics

let commits_per_client =
  match Sys.getenv_opt "TML_BENCH_COMMITS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 24)
  | None -> 24

let temp_dir () =
  let dir = Filename.temp_file "tmld_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* one session defines every relation up front: definitions stage the
   shared session manifest, so concurrent [let]s would conflict on it.
   The measured clients then insert into disjoint relations — every
   commit in a window is conflict-free and the committer seals whole
   groups. *)
let seed addr n =
  let c = Client.connect ~client:"bench-seed" addr in
  for k = 0 to n - 1 do
    match Client.eval c (Printf.sprintf "let b%d = relation(tuple(0, 0))" k) with
    | Ok _ -> ()
    | Error msg -> failwith msg
  done;
  (match Client.commit c with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  Client.close c

let client_loop addr k =
  let c = Client.connect ~client:(Printf.sprintf "bench-%d" k) addr in
  for i = 1 to commits_per_client do
    (match Client.eval c (Printf.sprintf "do insert(b%d, tuple(%d, %d)) end" k i (i * 10)) with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    match Client.commit c with
    | Ok (Client.Committed _) -> ()
    | Ok (Client.Conflicted _) -> failwith "unexpected conflict on a private relation"
    | Error msg -> failwith msg
  done;
  Client.close c

(* one storm: a fresh server, [n_clients] concurrent insert/commit
   loops, the commit/group counters and latency percentiles read back
   from the registry *)
let storm n_clients =
  let dir = temp_dir () in
  let sock = Filename.concat dir "tmld.sock" in
  Metrics.reset_all ();
  let config =
    Server.default_config ~store_path:(Filename.concat dir "bench.tml")
      ~addr:(Wire.Unix_path sock)
  in
  let t = Server.start { config with Server.max_clients = n_clients + 4 } in
  seed (Wire.Unix_path sock) n_clients;
  (* measure only the concurrent insert/commit storm *)
  Metrics.reset_all ();
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init n_clients (fun k -> Thread.create (fun () -> client_loop (Wire.Unix_path sock) k) ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* the registry the server reports over [Stat] is in-process here:
     read the same cells back directly *)
  let commits = Metrics.counter_value (Metrics.counter "server.commits") in
  let groups = Metrics.counter_value (Metrics.counter "server.group_commits") in
  let lat = Metrics.histogram "server.commit_latency_s" in
  let p50 = Metrics.percentile lat 0.50 *. 1000. in
  let p99 = Metrics.percentile lat 0.99 *. 1000. in
  Server.stop t;
  rm_rf dir;
  (commits, groups, elapsed, p50, p99)

let phase n_clients =
  let commits, groups, elapsed, p50, p99 = storm n_clients in
  Printf.printf
    {|{"experiment":"E13","clients":%d,"commits":%d,"group_commits":%d,"fsync_amortization":%.2f,"p50_ms":%.3f,"p99_ms":%.3f,"commits_per_s":%.1f}|}
    n_clients commits groups
    (if groups = 0 then 0. else float_of_int commits /. float_of_int groups)
    p50 p99
    (float_of_int commits /. elapsed);
  print_newline ()

(* tracing overhead under load: the same 16-client storm with tracing
   off (the instrumented-but-disabled baseline every request pays), with
   spans emitted to a null sink (emission cost alone) and streamed to a
   Chrome trace file (tmld --trace).  Acceptance: the null-sink rate
   within 5% of off. *)
let tracing_overhead () =
  let n_clients = 16 in
  let module Trace = Tml_obs.Trace in
  (* fsync timing is noisy run to run: take the best of three storms
     per mode so each mode reports its attainable rate *)
  let rate () =
    let one () =
      let commits, _, elapsed, _, _ = storm n_clients in
      float_of_int commits /. elapsed
    in
    max (one ()) (max (one ()) (one ()))
  in
  let with_sink sink f =
    let id = Trace.add_sink sink in
    Trace.enabled := true;
    Fun.protect
      ~finally:(fun () ->
        Trace.enabled := false;
        Trace.remove_sink id)
      f
  in
  let off = rate () in
  let null_rate = with_sink (Trace.null_sink ()) rate in
  let path = Filename.temp_file "tmld_bench_trace" ".json" in
  let file_rate =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        Sys.remove path)
      (fun () -> with_sink (Trace.chrome_sink oc) rate)
  in
  let overhead base v = 100. *. ((base /. v) -. 1.) in
  let null_pct = overhead off null_rate and file_pct = overhead off file_rate in
  Printf.printf
    {|{"experiment":"E13","workload":"tracing-overhead","clients":%d,"off_commits_per_s":%.1f,"null_sink_commits_per_s":%.1f,"file_sink_commits_per_s":%.1f,"null_sink_overhead_pct":%.1f,"file_sink_overhead_pct":%.1f}|}
    n_clients off null_rate file_rate null_pct file_pct;
  print_newline ();
  Printf.eprintf "  tracing overhead at %d clients: off %.1f/s, null sink %+.1f%%, file %+.1f%%%s\n%!"
    n_clients off null_pct file_pct
    (if null_pct <= 5.0 then "" else "  ** above 5% threshold **")

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Tml_vm.Runtime.install ();
  Tml_query.Qprims.install ();
  List.iter phase [ 1; 2; 4; 8; 16 ];
  tracing_overhead ()
