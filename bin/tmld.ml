(* tmld — the multi-session TML database server (docs/SERVER.md).

     $ dune exec bin/tmld.exe -- --store app.tml --socket /tmp/tml.sock
     $ dune exec bin/tmlsh.exe
     tml> :connect /tmp/tml.sock

   One process owns the store; every connection gets its own session
   with snapshot-isolated reads; commits from concurrent sessions are
   batched into group commits (one fsync per group).  SIGINT/SIGTERM
   shut down gracefully: live connections are drained, the committer
   seals its last group, the store is closed. *)

module Server = Tml_server.Server
module Wire = Tml_server.Wire

let () =
  let store = ref "" in
  let socket = ref "" in
  let listen = ref "" in
  let max_clients = ref 64 in
  let window_ms = ref 2.0 in
  let staged_cap = ref (16 * 1024 * 1024) in
  let fsync = ref true in
  let slow_ms = ref 0. in
  let slowlog_limit = ref 128 in
  let trace_chrome = ref "" in
  let trace_jsonl = ref "" in
  let prof = ref true in
  let spec =
    [
      "--store", Arg.Set_string store, "FILE durable log-structured store (created if missing)";
      "--socket", Arg.Set_string socket, "PATH listen on a Unix-domain socket";
      "--listen", Arg.Set_string listen, "HOST:PORT listen on TCP instead";
      "--max-clients", Arg.Set_int max_clients, "N admission limit (default 64)";
      ( "--commit-window-ms",
        Arg.Set_float window_ms,
        "MS group-commit batching window (default 2.0)" );
      ( "--staged-cap",
        Arg.Set_int staged_cap,
        "BYTES per-session staged-byte cap (default 16 MiB; 0 = unlimited)" );
      "--no-fsync", Arg.Clear fsync, " do not fsync commits (benchmarks only)";
      ( "--slow-ms",
        Arg.Set_float slow_ms,
        "MS log Eval/Pull slower than MS to the persistent slow-query log (default off)" );
      ( "--slowlog-limit",
        Arg.Set_int slowlog_limit,
        "N slow-log entries retained (default 128)" );
      ( "--trace",
        Arg.Set_string trace_chrome,
        "FILE stream a Chrome trace of every request (Perfetto-loadable)" );
      "--trace-jsonl", Arg.Set_string trace_jsonl, "FILE stream trace events as JSONL";
      "--no-prof", Arg.Clear prof, " disable the sampling VM profiler (SIGUSR1 dump)";
    ]
  in
  let usage = "tmld --store FILE (--socket PATH | --listen HOST:PORT) [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !store = "" || (!socket = "" && !listen = "") then begin
    prerr_endline usage;
    exit 2
  end;
  let addr =
    if !listen <> "" then
      match Wire.parse_addr !listen with
      | Wire.Tcp _ as a -> a
      | Wire.Unix_path _ ->
        prerr_endline "tmld: --listen expects HOST:PORT";
        exit 2
    else Wire.Unix_path !socket
  in
  (* keep the optimizer profiler and provenance recorder running, and
     promote hot code to the compiled tier, as tmlsh does, so :stats /
     :explain work against a server too *)
  Tml_core.Profile.enabled := true;
  Tml_obs.Provenance.enabled := true;
  Tml_vm.Tierup.enabled := true;
  Tml_vm.Vmprof.enabled := !prof;
  (* streaming sinks: closed (bracket emitted, buffers flushed) by the
     graceful drain below, so a SIGTERM'd daemon never leaves a
     Perfetto-unloadable trace behind *)
  if !trace_chrome <> "" then begin
    ignore (Tml_obs.Trace.add_sink (Tml_obs.Trace.chrome_sink (open_out !trace_chrome)));
    Tml_obs.Trace.enabled := true
  end;
  if !trace_jsonl <> "" then begin
    ignore (Tml_obs.Trace.add_sink (Tml_obs.Trace.jsonl_sink (open_out !trace_jsonl)));
    Tml_obs.Trace.enabled := true
  end;
  let config =
    {
      (Server.default_config ~store_path:!store ~addr) with
      Server.max_clients = !max_clients;
      commit_window = !window_ms /. 1000.;
      staged_cap = !staged_cap;
      fsync = !fsync;
      slow_ms = !slow_ms;
      slowlog_limit = !slowlog_limit;
    }
  in
  let t =
    try Server.start config with
    | Failure msg | Tml_store.Log_store.Store_error msg | Tml_vm.Pstore.Store_error msg ->
      Printf.eprintf "tmld: %s\n" msg;
      exit 1
  in
  let quit = ref false in
  let dump_prof = ref false in
  let on_signal _ = quit := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* SIGUSR1: dump the VM step profile as collapsed-stack text next to
     the store; the handler only sets a flag — the main loop does I/O *)
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_prof := true));
  let prof_path = !store ^ ".prof" in
  let write_prof () =
    let oc = open_out prof_path in
    output_string oc (Tml_vm.Vmprof.collapsed ());
    close_out oc;
    Printf.printf "tmld: vm profile dumped to %s\n%!" prof_path
  in
  Printf.printf "tmld: serving %s on %s\n%!" !store (Wire.addr_to_string addr);
  while not !quit do
    if !dump_prof then begin
      dump_prof := false;
      try write_prof () with
      | Sys_error msg -> Printf.eprintf "tmld: profile dump failed: %s\n%!" msg
    end;
    Thread.delay 0.1
  done;
  Server.stop t;
  (* close trace sinks after the drain: the Chrome sink writes its
     closing bracket, JSONL flushes *)
  Tml_obs.Trace.clear_sinks ();
  Tml_obs.Trace.enabled := false;
  Printf.printf "tmld: stopped\n%!"
