(* tmlsh — an interactive, persistent TL session (the Tycoon working
   style: one live store, incremental compilation and linking, reflective
   re-optimization of linked code, durable log-structured stores and
   store images on demand).

     $ dune exec bin/tmlsh.exe
     tml> let double(x: Int): Int = x * 2
     defined double
     tml> double(21)
     - : 42 (in 23 instructions)
     tml> :optimize double
     tml> double(21)
     - : 42 (in 12 instructions)

   Commands: :help :names :dump NAME :disasm NAME :optimize NAME
             :optimize-all :tier NAME :open FILE :commit :staged :compact :stats
             :explain NAME :trace on|off|dump :prof :top :slow
             :save FILE :steps :connect TARGET :disconnect :quit *)

open Tml_core
open Tml_vm
open Tml_frontend

let interactive = Unix.isatty Unix.stdin

(* the session keeps the optimizer profiler and provenance recorder
   running so :stats and :explain can report at any point; the overhead
   is a clock read per optimizer pass plus one small log per optimized
   function *)
let () =
  Profile.enabled := true;
  Tml_obs.Provenance.enabled := true;
  Tml_obs.Metrics.register_gc ();
  (* tiered execution: hot stored functions get promoted to the compiled
     closure tier as the session warms up (:tier NAME forces one; the
     "tier" rows of :stats report promotions, deopts and compiled runs) *)
  Tierup.enabled := true;
  (* sampling VM profiler: attributes executed vm steps to stored
     functions and tiers (:prof for the report, :prof collapsed for
     flamegraph input) *)
  Vmprof.enabled := true

let prompt () =
  if interactive then begin
    print_string "tml> ";
    flush stdout
  end

let help () =
  print_string
    "TL definitions and expressions are compiled into the live store.\n\
     Commands:\n\
    \  :help            this text\n\
    \  :names           linked user functions\n\
    \  :dump NAME       print a function's current TML\n\
    \  :disasm NAME     print its abstract machine code\n\
    \  :optimize NAME   reflectively optimize it in place\n\
    \  :optimize-all    reflectively optimize every function\n\
    \  :tier NAME       promote NAME to the compiled closure tier now\n\
    \                   (hot functions are promoted automatically; see\n\
    \                   the tier rows of :stats)\n\
    \  :open FILE       open a durable store: restore the session from it,\n\
    \                   or bind a new file to this session (lazy faulting;\n\
    \                   crash recovery on open)\n\
    \  :commit          seal the session state into the open store\n\
    \  :staged          list the objects the next :commit writes\n\
    \  :compact         commit, then rewrite the store keeping live objects\n\
    \  :stats           merged metrics report (optimizer, specialization\n\
    \                   cache and store counters in one registry)\n\
    \  :stats json      the same snapshot as one JSON object\n\
    \  :stats prom      the same registry as Prometheus text exposition\n\
    \  :stats reset     zero every counter in every source at once\n\
    \  :prof            VM step profile: where executed steps went, per\n\
    \                   stored function and tier\n\
    \  :prof collapsed [F]  the profile as collapsed-stack lines (stdout\n\
    \                   or file F; feed to a flamegraph tool)\n\
    \  :prof reset      zero the VM profile\n\
    \  :top             (connected) live per-session server view: phase,\n\
    \                   request counts, lock/commit latency percentiles\n\
    \  :slow [json]     (connected) the server's persistent slow-query\n\
    \                   log: duration, steps, tier, page faults, index\n\
    \                   probes and the plan rules that fired\n\
    \  :explain NAME    why NAME's code looks the way it does: its\n\
    \                   persistent optimization derivation log\n\
    \  :trace on|off    structured tracing into an in-memory ring\n\
    \  :trace dump [F]  write buffered events as a Chrome trace (stdout\n\
    \                   or file F; load in Perfetto / chrome://tracing)\n\
    \  :save FILE       write the store image (run functions later with\n\
    \                   'tmlc exec FILE name args')\n\
    \  :steps           abstract instructions executed so far\n\
    \  :connect TARGET  attach to a tmld server (Unix socket path or\n\
    \                   HOST:PORT); lines are then evaluated remotely in\n\
    \                   a snapshot-isolated server session\n\
    \  :disconnect      leave the server, back to the local session\n\
    \  :quit            leave\n"

let with_func session name f =
  match Repl.function_oid session name with
  | Some oid -> f oid
  | None -> Printf.printf "no function named %s\n" name

(* :trace state — the live in-memory ring sink, with its drain *)
let trace : (int * (unit -> Tml_obs.Trace.event list)) option ref = ref None

(* The open durable store, if any; :commit seals into it and the
   reflective optimizer commits through ctx.durable_commit. *)
let store : Pstore.t option ref = ref None

(* The tmld connection, if any; while connected, inputs are shipped to
   the server as wire frames instead of the local session. *)
let remote : Tml_server.Client.t option ref = ref None

(* Staged puts die with the process: say so on the way out (normal exit
   or SIGINT) instead of silently dropping them. *)
let warn_uncommitted () =
  match !store with
  | None -> ()
  | Some pstore ->
    let staged =
      try List.length (Pstore.collect pstore) with
      | _ -> 0
    in
    if staged > 0 then
      Printf.eprintf "tmlsh: warning: %d staged object(s) not committed to %s (lost; use :commit)\n%!"
        staged (Pstore.path pstore)

let () =
  at_exit warn_uncommitted;
  if interactive then
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130))

let wire_store session pstore =
  store := Some pstore;
  let heap = (Repl.ctx session).Runtime.heap in
  Tml_obs.Metrics.register_source ~name:"store.heap"
    ~snapshot:(fun () ->
      [
        "loaded", Tml_obs.Metrics.I (Value.Heap.loaded_count heap);
        ( "objects",
          Tml_obs.Metrics.I (Tml_store.Log_store.object_count (Pstore.log pstore)) );
        "uncommitted", Tml_obs.Metrics.I (Pstore.uncommitted_count pstore);
      ])
    ~reset:(fun () -> ());
  (Repl.ctx session).Runtime.durable_commit <-
    Some (fun () -> ignore (Repl.persist session pstore))

let commit_store session =
  match !store with
  | None -> Printf.printf "no store open (use :open FILE)\n"
  | Some pstore ->
    let n = Repl.persist session pstore in
    Printf.printf "committed %d objects to %s\n" n (Pstore.path pstore)

let describe_obj = function
  | Value.Func fo -> "function " ^ fo.Value.fo_name
  | Value.Relation r -> "relation " ^ r.Value.rel_name
  | Value.Module m -> "module " ^ m.Value.mod_name
  | Value.Index ix -> Printf.sprintf "index on field %d" ix.Value.ix_field
  | Value.Stats _ -> "stats"
  | Value.Tuple _ -> "tuple"
  | Value.Vector _ -> "vector"
  | Value.Array _ -> "array"
  | Value.Bytes _ -> "bytes"

(* What the next :commit writes, one object per line: the manifest is
   staged first (in place, as :commit does), then the batch is collected
   as :commit collects it, so the list is exact. *)
let staged_store session =
  match !store with
  | None -> Printf.printf "no store open (use :open FILE)\n"
  | Some pstore ->
    ignore (Repl.stage session pstore);
    let heap = (Repl.ctx session).Runtime.heap in
    let batch = Pstore.collect pstore in
    Printf.printf "%d objects staged:\n" (List.length batch);
    List.iter
      (fun (ix, _) ->
        match Value.Heap.peek heap (Oid.of_int ix) with
        | Some obj -> Printf.printf "  %s\n" (describe_obj obj)
        | None -> ())
      batch

let unwire_store session_ref =
  match !store with
  | Some old ->
    (Repl.ctx !session_ref).Runtime.durable_commit <- None;
    store := None;
    Tml_obs.Metrics.unregister_source "store.heap";
    Pstore.close old
  | None -> ()

let open_store session_ref file =
  if Sys.file_exists file then begin
    (* build the replacement session completely before detaching the
       current store, so a failed :open leaves the session usable *)
    let pstore = Pstore.open_ file in
    match Repl.restore pstore with
    | exception e ->
      Pstore.close pstore;
      raise e
    | session ->
      unwire_store session_ref;
      session_ref := session;
      wire_store session pstore;
      let torn = Tml_store.Log_store.truncated_bytes (Pstore.log pstore) in
      if torn > 0 then Printf.printf "recovered %s (truncated %d torn bytes)\n" file torn;
      Printf.printf "restored session from %s (%d objects, faulted on demand)\n" file
        (Tml_store.Log_store.object_count (Pstore.log pstore))
  end
  else begin
    let heap = (Repl.ctx !session_ref).Runtime.heap in
    (* the new store adopts the session heap: materialize any objects
       still backed by the old store before cutting it loose *)
    (match !store with
    | Some _ ->
      for i = 0 to Value.Heap.size heap - 1 do
        ignore (Value.Heap.get_opt heap (Oid.of_int i))
      done
    | None -> ());
    unwire_store session_ref;
    let pstore = Pstore.attach file heap in
    wire_store !session_ref pstore;
    let n = Repl.persist !session_ref pstore in
    Printf.printf "new store %s (committed %d objects)\n" file n
  end

let command session_ref line =
  let session = !session_ref in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ ":help" ] -> help ()
  | [ ":names" ] ->
    List.iter
      (fun (name, _) -> print_endline name)
      (List.filter
         (fun (name, _) -> not (String.contains name '!'))
         (Repl.function_oids session))
  | [ ":dump"; name ] ->
    with_func session name (fun _ ->
        match Repl.lookup_tml session name with
        | Some tml -> Format.printf "%a@." Pp.pp_value tml
        | None -> Printf.printf "no TML for %s\n" name)
  | [ ":disasm"; name ] ->
    with_func session name (fun oid ->
        match Value.Heap.get (Repl.ctx session).Runtime.heap oid with
        | Value.Func fo -> (
          ignore (Compile.compile_func (Repl.ctx session) fo);
          match fo.Value.fo_code with
          | Some u -> Format.printf "%a@." Instr.pp_unit u
          | None -> Printf.printf "%s is a bare primitive\n" name)
        | _ -> ())
  | [ ":optimize"; name ] ->
    with_func session name (fun oid ->
        let r = Tml_reflect.Reflect.optimize_inplace (Repl.ctx session) oid in
        Printf.printf "optimized %s: static cost %d -> %d, %d calls inlined\n" name
          r.Tml_reflect.Reflect.report.Optimizer.cost_before
          r.Tml_reflect.Reflect.report.Optimizer.cost_after
          r.Tml_reflect.Reflect.inlined_calls)
  | [ ":optimize-all" ] ->
    Tml_reflect.Reflect.optimize_all (Repl.ctx session)
      (List.map snd (Repl.function_oids session));
    Printf.printf "optimized %d functions\n" (List.length (Repl.function_oids session))
  | [ ":tier"; name ] ->
    with_func session name (fun oid ->
        if Tierup.force_promote (Repl.ctx session) oid then
          Printf.printf "promoted %s to the compiled tier\n" name
        else Printf.printf "cannot promote %s (not a compilable function)\n" name)
  | [ ":open"; file ] -> open_store session_ref file
  | [ ":commit" ] -> commit_store session
  | [ ":staged" ] -> staged_store session
  | [ ":compact" ] -> (
    match !store with
    | None -> Printf.printf "no store open (use :open FILE)\n"
    | Some pstore ->
      let log = Pstore.log pstore in
      let before = Tml_store.Log_store.file_bytes log in
      Pstore.compact pstore;
      Printf.printf "compacted %s: %d -> %d bytes\n" (Pstore.path pstore) before
        (Tml_store.Log_store.file_bytes log))
  | [ ":stats" ] -> Format.printf "%a@?" Tml_obs.Metrics.pp_report ()
  | [ ":stats"; "json" ] -> print_endline (Tml_obs.Metrics.snapshot_json ())
  | [ ":stats"; "prom" ] -> print_string (Tml_obs.Metrics.prometheus ())
  | [ ":stats"; "reset" ] ->
    Tml_obs.Metrics.reset_all ();
    print_endline "all metric sources reset"
  | [ ":explain"; name ] ->
    with_func session name (fun oid ->
        match Tml_reflect.Reflect.provenance (Repl.ctx session) oid with
        | Some prov -> Format.printf "%s: %a@." name Tml_obs.Provenance.pp prov
        | None ->
          Printf.printf "no recorded derivation for %s (not optimized yet?)\n" name)
  | [ ":trace"; "on" ] -> (
    match !trace with
    | Some _ -> print_endline "tracing already on"
    | None ->
      let sink, drain = Tml_obs.Trace.memory_sink () in
      let id = Tml_obs.Trace.add_sink sink in
      Tml_obs.Trace.enabled := true;
      trace := Some (id, drain);
      print_endline "tracing on (:trace dump [FILE] for a Chrome trace)")
  | [ ":trace"; "off" ] -> (
    match !trace with
    | None -> print_endline "tracing already off"
    | Some (id, _) ->
      Tml_obs.Trace.enabled := false;
      Tml_obs.Trace.remove_sink id;
      trace := None;
      print_endline "tracing off")
  | ":trace" :: "dump" :: rest -> (
    match !trace with
    | None -> print_endline "tracing is off (:trace on first)"
    | Some (_, drain) -> (
      let events = drain () in
      let doc = Tml_obs.Trace.chrome_of_events events in
      match rest with
      | [] -> print_string doc
      | [ file ] ->
        Out_channel.with_open_bin file (fun oc -> output_string oc doc);
        Printf.printf "wrote %d events to %s\n" (List.length events) file
      | _ -> print_endline "usage: :trace dump [FILE]"))
  | [ ":save"; file ] ->
    Image.save_file (Repl.ctx session).Runtime.heap file;
    Printf.printf "store image written to %s\n" file
  | [ ":steps" ] -> Printf.printf "%d abstract instructions\n" (Repl.ctx session).Runtime.steps
  | [ ":prof" ] -> Format.printf "%a@?" Vmprof.pp ()
  | ":prof" :: "collapsed" :: rest -> (
    match rest with
    | [] -> print_string (Vmprof.collapsed ())
    | [ file ] ->
      Out_channel.with_open_bin file (fun oc -> output_string oc (Vmprof.collapsed ()));
      Printf.printf "vm profile written to %s\n" file
    | _ -> print_endline "usage: :prof collapsed [FILE]")
  | [ ":prof"; "reset" ] ->
    Vmprof.reset ();
    print_endline "vm profile reset"
  | [ ":top" ] ->
    print_endline "not connected (:top shows live sessions of a tmld; use :connect TARGET)"
  | [ ":slow" ] | [ ":slow"; "json" ] ->
    print_endline
      "no slow-query log locally (connect to a tmld started with --slow-ms)"
  | [ ":connect"; target ] -> (
    (* a dying server must surface as a broken-connection error on the
       next write, not kill the shell with SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match Tml_server.Client.connect (Tml_server.Wire.parse_addr target) with
    | c ->
      remote := Some c;
      Printf.printf "connected to %s (session %d at epoch %d)\n" target
        (Tml_server.Client.session_id c) (Tml_server.Client.epoch c)
    | exception Tml_server.Client.Client_error msg -> Printf.printf "connect failed: %s\n" msg)
  | [ ":disconnect" ] -> Printf.printf "not connected (use :connect TARGET)\n"
  | _ -> Printf.printf "unknown command %s (:help for help)\n" line

(* While connected, :commit/:stats/:explain map to their wire frames,
   :disconnect comes home, and everything else — TL source as well as
   server-side directives like :optimize — travels as an eval frame. *)
let remote_line c line =
  let module C = Tml_server.Client in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ ":disconnect" ] ->
    C.close c;
    remote := None;
    print_endline "disconnected"
  | [ ":commit" ] -> (
    match C.commit c with
    | Ok (C.Committed { epoch; objects; group = 0 }) ->
      (* an empty commit joins no fsync group; it only moves the pin *)
      Printf.printf "committed %d objects at epoch %d (nothing to seal)\n" objects epoch
    | Ok (C.Committed { epoch; objects; group }) ->
      Printf.printf "committed %d objects at epoch %d (group of %d)\n" objects epoch group
    | Ok (C.Conflicted { oid }) ->
      Printf.printf
        "commit conflict on oid %d (first committer won; transaction aborted, now at epoch \
         %d)\n"
        oid (C.epoch c)
    | Error msg -> print_endline msg)
  | [ ":stats" ] | [ ":stats"; "json" ] -> print_endline (C.stats c)
  | [ ":stats"; "prom" ] -> print_string (C.stats_prom c)
  | [ ":slow" ] -> print_string (C.slowlog c)
  | [ ":slow"; "json" ] -> print_endline (C.slowlog ~json:true c)
  | [ ":explain"; name ] -> (
    match C.explain c name with
    | Ok out -> print_string out
    | Error msg -> print_endline msg)
  | _ -> (
    match C.eval c line with
    | Ok out -> print_string out
    | Error msg -> print_endline msg)

let () =
  if interactive then
    print_endline "tmlsh — persistent TL session (:help for commands, :quit to leave)";
  let session = ref (Repl.create ()) in
  let rec loop () =
    prompt ();
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let line = String.trim line in
      if line = ":quit" || line = ":q" then
        Option.iter Tml_server.Client.close !remote
      else begin
        if line = "" then ()
        else if !remote <> None then begin
          let c = Option.get !remote in
          try remote_line c line with
          | Tml_server.Client.Client_error msg | Tml_server.Wire.Wire_error msg ->
            Printf.printf "connection lost: %s\n" msg;
            remote := None
        end
        else if line.[0] = ':' then begin
          try command session line with
          | Runtime.Fault msg -> Format.printf "runtime fault: %s@." msg
          | Tml_store.Log_store.Store_error msg | Pstore.Store_error msg ->
            Format.printf "store error: %s@." msg
        end
        else begin
          try print_string (Repl.render (Repl.feed !session line)) with
          | Lexer.Lex_error (pos, msg) ->
            Format.printf "lexical error at %a: %s@." Ast.pp_pos pos msg
          | Parser.Parse_error (pos, msg) ->
            Format.printf "syntax error at %a: %s@." Ast.pp_pos pos msg
          | Typecheck.Type_error (pos, msg) ->
            Format.printf "type error at %a: %s@." Ast.pp_pos pos msg
          | Runtime.Fault msg -> Format.printf "runtime fault: %s@." msg
        end;
        (* keep output line-synchronous so a session driven through a
           pipe or fifo (test/tmld.t) can be followed as it runs *)
        flush stdout;
        loop ()
      end
  in
  loop ()
