(* The observability layer (lib/obs): span nesting and sink encoding
   (with a golden Chrome trace), the metrics registry, and optimization
   provenance — recording, the replay property, the binary codec and a
   reflective optimization's persisted derivation. *)

open Tml_core
open Tml_vm
module Trace = Tml_obs.Trace
module Metrics = Tml_obs.Metrics
module Provenance = Tml_obs.Provenance
module Events = Tml_obs.Events

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* run [f] with tracing on: a deterministic clock (1 ms per reading), a
   fresh memory sink, everything restored afterwards *)
let with_tracing f =
  let saved_clock = !Trace.clock in
  let t = ref 0.0 in
  Trace.clock :=
    (fun () ->
      let v = !t in
      t := v +. 0.001;
      v);
  let sink, drain = Trace.memory_sink () in
  let id = Trace.add_sink sink in
  Trace.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.enabled := false;
      Trace.remove_sink id;
      Trace.clock := saved_clock)
    (fun () -> f drain)

(* ------------------------------------------------------------------ *)
(* tracing: spans, instants, sinks                                      *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let events =
    with_tracing (fun drain ->
        Trace.with_span ~cat:"t" "outer" (fun () ->
            Trace.with_span ~cat:"t" "inner" (fun () -> ());
            Trace.instant ~cat:"t" "mark" ~args:[ "n", Trace.Int 3 ]);
        drain ())
  in
  let shape =
    List.map (fun e -> (e.Trace.ev_name, e.Trace.ev_ph)) events
  in
  check tbool "B/E nesting order" true
    (shape
    = [
        "outer", Trace.B;
        "inner", Trace.B;
        "inner", Trace.E;
        "mark", Trace.I;
        "outer", Trace.E;
      ]);
  (* the fake clock advances 1000 us per reading *)
  check tbool "timestamps from the installed clock" true
    (List.map (fun e -> e.Trace.ev_ts) events = [ 0.0; 1000.0; 2000.0; 3000.0; 4000.0 ])

let test_span_exception () =
  let events =
    with_tracing (fun drain ->
        (try Trace.with_span ~cat:"t" "boom" (fun () -> failwith "x") with
        | Failure _ -> ());
        drain ())
  in
  check tbool "E emitted on exception" true
    (List.map (fun e -> e.Trace.ev_ph) events = [ Trace.B; Trace.E ])

let test_disabled_is_silent () =
  let sink, drain = Trace.memory_sink () in
  let id = Trace.add_sink sink in
  Trace.enabled := false;
  Trace.instant ~cat:"t" "dropped";
  Trace.with_span ~cat:"t" "dropped" (fun () -> ());
  Trace.remove_sink id;
  check tint "no events while disabled" 0 (List.length (drain ()))

let test_memory_sink_bound () =
  let sink, drain = Trace.memory_sink ~limit:4 () in
  for i = 0 to 9 do
    sink.Trace.sk_emit
      { Trace.ev_name = string_of_int i; ev_cat = "t"; ev_ph = Trace.I; ev_ts = 0.0;
        ev_args = []; ev_tid = 1 }
  done;
  check tbool "ring keeps the newest" true
    (List.map (fun e -> e.Trace.ev_name) (drain ()) = [ "6"; "7"; "8"; "9" ])

(* fixed event list shared by the renderer tests and the golden file *)
let golden_events =
  [
    { Trace.ev_name = "optimize"; ev_cat = "optimizer"; ev_ph = Trace.B; ev_ts = 0.0;
      ev_args = []; ev_tid = 1 };
    {
      Trace.ev_name = "rule_fire";
      ev_cat = "optimizer";
      ev_ph = Trace.I;
      ev_ts = 125.5;
      ev_args =
        [
          "rule", Trace.Str "q.merge-select";
          "site", Trace.Str "(select \"r\")";
          "size_delta", Trace.Int (-4);
          "hot", Trace.Bool true;
          "ratio", Trace.Float 0.5;
        ];
      ev_tid = 1;
    };
    { Trace.ev_name = "optimize"; ev_cat = "optimizer"; ev_ph = Trace.E; ev_ts = 250.0;
      ev_args = []; ev_tid = 1 };
    {
      Trace.ev_name = "vm.run_steps";
      ev_cat = "vm";
      ev_ph = Trace.C;
      ev_ts = 1000.0;
      ev_args = [ "steps", Trace.Int 42 ];
      ev_tid = 1;
    };
  ]

let test_chrome_golden () =
  let rendered = Trace.chrome_of_events golden_events in
  let golden = In_channel.with_open_bin "golden/trace.json" In_channel.input_all in
  check tstr "golden Chrome trace" golden rendered

let test_chrome_shape () =
  let doc = Trace.chrome_of_events golden_events in
  check tbool "traceEvents wrapper" true (contains doc "{\"traceEvents\":[");
  check tbool "display unit tail" true (contains doc "\"displayTimeUnit\":\"ms\"}");
  check tbool "escaped string arg" true (contains doc "(select \\\"r\\\")");
  (* one object per event, comma-separated *)
  let jsonl = Trace.jsonl_of_events golden_events in
  check tint "jsonl line count" (List.length golden_events)
    (List.length (String.split_on_char '\n' (String.trim jsonl)));
  check tstr "jsonl line = event_to_json" (Trace.event_to_json (List.hd golden_events))
    (List.hd (String.split_on_char '\n' jsonl))

let test_chrome_sink_streams () =
  let path = Filename.temp_file "tmlobs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Trace.chrome_sink oc in
      List.iter sink.Trace.sk_emit golden_events;
      sink.Trace.sk_close ();
      close_out oc;
      let streamed = In_channel.with_open_bin path In_channel.input_all in
      check tstr "streaming sink = pure renderer" (Trace.chrome_of_events golden_events)
        streamed)

(* [s] split at every occurrence of [sep] *)
let split_on ~sep s =
  let n = String.length sep in
  let rec go start i acc =
    if i + n > String.length s then List.rev (String.sub s start (String.length s - start) :: acc)
    else if String.sub s i n = sep then go (i + n) (i + n) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* 4 threads x 1000 events into one file sink: every line (jsonl) and
   every separated item (chrome) is exactly one whole event, each event
   appears once — no two events share or split a line *)
let test_file_sinks_concurrent () =
  let threads = 4 and per_thread = 1000 in
  let event t i =
    { Trace.ev_name = Printf.sprintf "ev-%d-%d" t i; ev_cat = "concurrent"; ev_ph = Trace.I;
      ev_ts = float_of_int i; ev_args = [ ("payload", Trace.Str (String.make 64 'x')) ];
      ev_tid = t }
  in
  let expected = Hashtbl.create (threads * per_thread) in
  for t = 0 to threads - 1 do
    for i = 0 to per_thread - 1 do
      Hashtbl.replace expected (Trace.event_to_json (event t i)) ()
    done
  done;
  let run mk_sink items_of =
    let path = Filename.temp_file "tmlobs" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        let sink = mk_sink oc in
        Array.iter Thread.join
          (Array.init threads (fun t ->
               Thread.create
                 (fun () ->
                   for i = 0 to per_thread - 1 do
                     sink.Trace.sk_emit (event t i);
                     if i mod 50 = 0 then Thread.yield ()
                   done)
                 ()));
        sink.Trace.sk_close ();
        close_out oc;
        let items = items_of (In_channel.with_open_bin path In_channel.input_all) in
        let seen = Hashtbl.create (threads * per_thread) in
        List.iter
          (fun item ->
            if not (Hashtbl.mem expected item) then Alcotest.failf "torn line: %S" item;
            if Hashtbl.mem seen item then Alcotest.failf "duplicated line: %S" item;
            Hashtbl.replace seen item ())
          items;
        check tint "every event written once" (threads * per_thread) (Hashtbl.length seen))
  in
  run Trace.jsonl_sink (fun s ->
      check tbool "ends with a newline" true (String.ends_with ~suffix:"\n" s);
      split_on ~sep:"\n" (String.sub s 0 (String.length s - 1)));
  let header = "{\"traceEvents\":[" and trailer = "],\"displayTimeUnit\":\"ms\"}\n" in
  run Trace.chrome_sink (fun s ->
      check tbool "chrome header" true (String.starts_with ~prefix:header s);
      check tbool "chrome trailer" true (String.ends_with ~suffix:trailer s);
      split_on ~sep:",\n"
        (String.sub s (String.length header)
           (String.length s - String.length header - String.length trailer)))

let test_memory_sink_counts_drops () =
  Metrics.reset_all ();
  let dropped = Metrics.counter "trace.dropped_spans" in
  let before = Metrics.counter_value dropped in
  let sink, _drain = Trace.memory_sink ~limit:4 () in
  for i = 0 to 9 do
    sink.Trace.sk_emit
      { Trace.ev_name = string_of_int i; ev_cat = "t"; ev_ph = Trace.I; ev_ts = 0.0;
        ev_args = []; ev_tid = 1 }
  done;
  (* eviction is not silent: the ring owns up to every lost span *)
  check tint "evictions counted" 6 (Metrics.counter_value dropped - before);
  check tbool "surfaced in the stats snapshot" true
    (contains (Metrics.snapshot_json ()) "\"trace.dropped_spans\":6")

let test_tid_stamping () =
  let saved = !Trace.tid_source in
  Trace.tid_source := (fun () -> 7);
  Fun.protect
    ~finally:(fun () -> Trace.tid_source := saved)
    (fun () ->
      let events =
        with_tracing (fun drain ->
            Trace.with_span ~cat:"t" "threaded" (fun () -> ());
            drain ())
      in
      check tbool "events stamped with the installed tid" true
        (List.for_all (fun e -> e.Trace.ev_tid = 7) events);
      check tbool "tid reaches the Chrome JSON" true
        (contains (Trace.chrome_of_events events) "\"tid\":7"))

(* ------------------------------------------------------------------ *)
(* metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  Metrics.reset_all ();
  let c = Metrics.counter "t.count" in
  Metrics.inc c;
  Metrics.add c 4;
  check tint "counter" 5 (Metrics.counter_value c);
  check tint "creation is idempotent" 5 (Metrics.counter_value (Metrics.counter "t.count"));
  let g = Metrics.gauge "t.gauge" in
  Metrics.set_gauge g 2.5;
  let h = Metrics.histogram ~labels:[ "k", "v" ] "t.hist" in
  Metrics.observe h 1.0;
  Metrics.observe h 3.0;
  check tint "histogram count" 2 (Metrics.histogram_count h);
  check (Alcotest.float 1e-9) "histogram sum" 4.0 (Metrics.histogram_sum h);
  let src_resets = ref 0 in
  Metrics.register_source ~name:"t.src"
    ~snapshot:(fun () -> [ "x", Metrics.I 7; "y", Metrics.F 0.25 ])
    ~reset:(fun () -> incr src_resets);
  let json = Metrics.snapshot_json () in
  check tbool "counter in snapshot" true (contains json "\"t.count\":5");
  check tbool "labels render" true (contains json "t.hist{k=v}");
  check tbool "source fields in snapshot" true (contains json "\"x\":7");
  let report = Format.asprintf "%a" Metrics.pp_report () in
  check tbool "report merges sources" true
    (contains report "t.count" && contains report "-- t.src --");
  Metrics.reset_all ();
  check tint "owned metrics zeroed" 0 (Metrics.counter_value c);
  check tint "source reset once" 1 !src_resets;
  check tint "histogram zeroed" 0 (Metrics.histogram_count h);
  Metrics.unregister_source "t.src";
  check tbool "unregistered source gone" false (contains (Metrics.snapshot_json ()) "t.src")

(* The specialization cache is deleted: what is left of it registers no
   source, so [:stats] and the JSON snapshot carry no "speccache" block
   next to the sources that remain. *)
let test_no_speccache_source () =
  Speccache.register_metrics ();
  Tierup.register_metrics ();
  let json = Metrics.snapshot_json () in
  check tbool "the tier source is registered" true (contains json "\"tier\":{");
  check tbool "the cache stub registers no source" false (contains json "\"speccache\":{")

(* the gc source: every Gc.quick_stat figure, running totals that grow
   with allocation and restart from a reset *)
let test_gc_source () =
  Metrics.register_gc ();
  let gc key =
    let json = Metrics.snapshot_json () in
    let rec after from needle =
      if from + String.length needle > String.length json then
        Alcotest.failf "no %s in %s" needle json
      else if String.sub json from (String.length needle) = needle then
        from + String.length needle
      else after (from + 1) needle
    in
    let at = after (after 0 "\"gc\":{") (Printf.sprintf "\"%s\":" key) in
    Scanf.sscanf (String.sub json at 20) "%d" Fun.id
  in
  List.iter
    (fun key -> check tbool (key ^ " reported") true (gc key >= 0))
    [ "minor_words"; "promoted_words"; "major_words"; "minor_collections";
      "major_collections"; "heap_words"; "top_heap_words" ];
  (* OCaml 5 counts a domain's minor words in batches, so the bound is
     loose: two million list cells are six million words *)
  let words = gc "minor_words" in
  let kept = Sys.opaque_identity (List.init 20 (fun _ -> List.init 100_000 Fun.id)) in
  let grown = gc "minor_words" in
  check tbool "two million list cells are counted" true (grown - words >= 2_000_000);
  check tbool "the heap has a peak" true (gc "top_heap_words" >= gc "heap_words");
  ignore (Sys.opaque_identity kept);
  Metrics.reset_all ();
  check tbool "a reset restarts the running totals" true (gc "minor_words" < grown / 2);
  check tbool "but not the heap's size" true (gc "heap_words" > 0)

let test_vm_run_metric () =
  Metrics.reset_all ();
  (* the vm.run_steps histogram is always on, tracing or not *)
  Events.vm_run ~engine:"test" ~steps:10;
  Events.vm_run ~engine:"test" ~steps:30;
  let h = Metrics.histogram "vm.run_steps" in
  check tint "vm_run observes" 2 (Metrics.histogram_count h);
  check (Alcotest.float 1e-9) "vm_run sums steps" 40.0 (Metrics.histogram_sum h);
  Metrics.reset_all ()

(* the reservoir percentile estimator must stay coherent under
   concurrent writers: no torn snapshot (count from one moment, sum from
   another), no crash, percentiles inside the observed range *)
let test_reservoir_concurrent () =
  Metrics.reset_all ();
  let h = Metrics.histogram "t.concurrent" in
  let writers = 4 and per_writer = 5000 in
  let stop_readers = ref false in
  let reader_failures = ref 0 in
  let readers =
    Array.init 2 (fun _ ->
        Thread.create
          (fun () ->
            while not !stop_readers do
              let p50 = Metrics.percentile h 0.5 in
              let p99 = Metrics.percentile h 0.99 in
              if p50 < 0.0 || p50 > 1.0 || p99 < 0.0 || p99 > 1.0 then incr reader_failures;
              Thread.yield ()
            done)
          ())
  in
  let threads =
    Array.init writers (fun _ ->
        Thread.create
          (fun () ->
            for i = 0 to per_writer - 1 do
              Metrics.observe h (float_of_int (i mod 1000) /. 999.0)
            done)
          ())
  in
  Array.iter Thread.join threads;
  stop_readers := true;
  Array.iter Thread.join readers;
  check tint "no observation lost" (writers * per_writer) (Metrics.histogram_count h);
  let expected_sum =
    float_of_int writers *. (float_of_int per_writer /. 1000.0)
    *. (Array.init 1000 (fun i -> float_of_int i /. 999.0) |> Array.fold_left ( +. ) 0.0)
  in
  check (Alcotest.float 1e-6) "no partial sum" expected_sum (Metrics.histogram_sum h);
  check tint "no torn percentile read" 0 !reader_failures;
  let p50 = Metrics.percentile h 0.5 in
  check tbool "p50 within the observed range" true (p50 >= 0.0 && p50 <= 1.0);
  Metrics.reset_all ()

let test_prometheus_exposition () =
  Metrics.reset_all ();
  Metrics.inc (Metrics.counter "server.evals");
  Metrics.set_gauge (Metrics.gauge "server.active_sessions") 3.0;
  let h = Metrics.histogram ~labels:[ "kind", "eval" ] "eval_lock.wait_s" in
  Metrics.observe h 0.25;
  Metrics.observe h 0.75;
  Metrics.add Tml_query.Rel.index_probes 12;
  let doc = Metrics.prometheus () in
  (* dotted names are sanitized to the Prometheus alphabet *)
  check tbool "counter type line" true (contains doc "# TYPE server_evals counter");
  check tbool "counter sample" true (contains doc "server_evals 1");
  check tbool "gauge sample" true (contains doc "server_active_sessions 3");
  check tbool "summary type line" true (contains doc "# TYPE eval_lock_wait_s summary");
  check tbool "labels merge with quantile" true
    (contains doc "eval_lock_wait_s{quantile=\"0.5\",kind=\"eval\"}");
  check tbool "summary count" true (contains doc "eval_lock_wait_s_count{kind=\"eval\"} 2");
  check tbool "summary sum" true (contains doc "eval_lock_wait_s_sum{kind=\"eval\"} 1");
  check tbool "source flattened to a gauge" true (contains doc "query_index_probes 12");
  Metrics.reset_all ()

(* ------------------------------------------------------------------ *)
(* slow-query log                                                       *)
(* ------------------------------------------------------------------ *)

module Slowlog = Tml_obs.Slowlog

let slow_entry ?(trace = 0xbeef) ?(src = "count(r)") ?(rules = []) ?(facts = []) () =
  {
    Slowlog.sl_trace = trace;
    sl_kind = "eval";
    sl_source = src;
    sl_duration_s = 0.125;
    sl_steps = 4242;
    sl_tier = "tiered";
    sl_page_faults = 3;
    sl_index_probes = 17;
    sl_rules = rules;
    sl_facts = facts;
  }

let test_slowlog_ring () =
  let log = Slowlog.create ~limit:3 () in
  check tint "empty" 0 (Slowlog.length log);
  for i = 1 to 5 do
    Slowlog.add log (slow_entry ~trace:i ())
  done;
  check tint "bounded" 3 (Slowlog.length log);
  check tint "drop count" 2 (Slowlog.dropped log);
  check tbool "oldest evicted, order kept" true
    (List.map (fun e -> e.Slowlog.sl_trace) (Slowlog.entries log) = [ 3; 4; 5 ]);
  Slowlog.clear log;
  check tint "cleared" 0 (Slowlog.length log)

let test_slowlog_codec () =
  let log = Slowlog.create ~limit:8 () in
  Slowlog.add log
    (slow_entry
       ~src:"select(fun (t) => field(t, 1) > \"weird\n\t\" end, r)"
       ~rules:[ "q.index-select"; "beta" ]
       ~facts:[ "index on field 2 of <oid 0x00000a>"; "" ]
       ());
  Slowlog.add log (slow_entry ~trace:0 ~src:"" ());
  let decoded = Slowlog.decode ~limit:8 (Slowlog.encode log) in
  check tbool "entries survive the codec" true (Slowlog.entries decoded = Slowlog.entries log);
  check tint "limit is the caller's" 8 (Slowlog.limit decoded);
  (match Slowlog.decode "not a slow log" with
  | exception Slowlog.Corrupt _ -> ()
  | (_ : Slowlog.t) -> Alcotest.fail "bad magic accepted");
  let truncated =
    let s = Slowlog.encode log in
    String.sub s 0 (String.length s - 2)
  in
  match Slowlog.decode truncated with
  | exception Slowlog.Corrupt _ -> ()
  | (_ : Slowlog.t) -> Alcotest.fail "truncated payload accepted"

let test_slowlog_persistence () =
  let path = Filename.temp_file "tmlslow" ".slowlog" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let log = Slowlog.create ~limit:4 () in
      Slowlog.add log (slow_entry ~rules:[ "q.merge-select" ] ());
      Slowlog.save log path;
      let reloaded = Slowlog.load path in
      check tbool "entries reload" true (Slowlog.entries reloaded = Slowlog.entries log);
      (* a corrupt sidecar must never cost the server: load yields empty *)
      Out_channel.with_open_bin path (fun oc -> output_string oc "garbage");
      check tint "corrupt file loads as empty" 0 (Slowlog.length (Slowlog.load path));
      check tint "missing file loads as empty" 0
        (Slowlog.length (Slowlog.load (path ^ ".nope"))))

let test_slowlog_rendering () =
  let log = Slowlog.create ~limit:4 () in
  Slowlog.add log (slow_entry ~trace:1 ~src:"count(older)" ());
  Slowlog.add log
    (slow_entry ~trace:2 ~src:"count(newer)" ~rules:[ "q.index-select" ]
       ~facts:[ "index on field 2" ] ());
  let json = Slowlog.to_json log in
  check tbool "json shape" true
    (contains json "\"limit\":4" && contains json "\"dropped\":0"
    && contains json "\"entries\":[");
  check tbool "json carries the rule names" true (contains json "q.index-select");
  let text = Format.asprintf "%a" Slowlog.pp log in
  check tbool "pp names both queries" true
    (contains text "count(older)" && contains text "count(newer)");
  check tbool "pp lists fired rules" true (contains text "q.index-select");
  (* newest first in the human rendering *)
  let index_of needle =
    let n = String.length needle in
    let rec find i = if String.sub text i n = needle then i else find (i + 1) in
    find 0
  in
  check tbool "newest entry printed first" true
    (index_of "count(newer)" < index_of "count(older)")

(* ------------------------------------------------------------------ *)
(* vm profiler                                                          *)
(* ------------------------------------------------------------------ *)

let test_vmprof_attribution () =
  let saved = !Vmprof.enabled in
  Vmprof.reset ();
  Vmprof.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Vmprof.enabled := saved;
      Vmprof.reset ())
    (fun () ->
      let program =
        Tml_frontend.Link.load
          "let burn(x: Int): Int = x * x + x\n\
           do io.print_int(burn(3)) end\n\
           do io.print_int(burn(4)) end"
      in
      (match Tml_frontend.Link.run_main program ~engine:`Machine () with
      | (Eval.Done _ | Eval.Raised _), (_ : int) -> ()
      | _ -> Alcotest.fail "main did not finish");
      let samples = Vmprof.samples () in
      check tbool "steps attributed to the stored function" true
        (List.exists
           (fun s ->
             contains s.Vmprof.vp_key "burn" && s.Vmprof.vp_steps > 0 && s.Vmprof.vp_calls >= 2)
           samples);
      check tbool "total covers the samples" true
        (Vmprof.total_steps () >= List.fold_left (fun a s -> a + s.Vmprof.vp_steps) 0 samples);
      let collapsed = Vmprof.collapsed () in
      check tbool "collapsed stack line" true (contains collapsed ";burn ");
      let report = Format.asprintf "%a" Vmprof.pp () in
      check tbool "report names the function" true (contains report "burn"))

(* ------------------------------------------------------------------ *)
(* provenance: recording, replay, codecs                                *)
(* ------------------------------------------------------------------ *)

let entry rule site fact sd cd =
  {
    Provenance.pv_rule = rule;
    pv_site = site;
    pv_fact = fact;
    pv_size_delta = sd;
    pv_cost_delta = cd;
  }

let test_provenance_basics () =
  let log = [ entry "beta" "(proc/2 ...)" "" (-4) (-3); entry "expand" "2 call sites" "" 10 2 ] in
  check tbool "equal on itself" true (Provenance.equal log log);
  check tbool "unequal on different rule" false
    (Provenance.equal log [ entry "eta" "(proc/2 ...)" "" (-4) (-3); List.nth log 1 ]);
  check tstr "summary totals" "2 steps, size +6, cost -1" (Provenance.summary log);
  let rendered = Format.asprintf "%a" Provenance.pp log in
  check tbool "pp numbers the steps" true
    (contains rendered "1. beta" && contains rendered "2. expand");
  check tbool "empty log prints placeholder" true
    (contains (Format.asprintf "%a" Provenance.pp []) "no rewrite steps")

(* recording is deterministic and the recorded log replays: re-optimizing
   the pre-term reproduces the same derivation and an alpha-equivalent
   result.  This is the property that makes :explain trustworthy. *)
let test_replay_property () =
  let saved = !Provenance.enabled in
  Provenance.enabled := true;
  Fun.protect
    ~finally:(fun () -> Provenance.enabled := saved)
    (fun () ->
      for seed = 0 to 99 do
        let rng = Random.State.make [| seed |] in
        let pre = Gen.proc2 rng ~size:(10 + (seed mod 40)) in
        let post, report = Optimizer.optimize_value pre in
        match Optimizer.replay pre report.Optimizer.prov with
        | Ok post' ->
          if not (Term.alpha_equal_value post post') then
            Alcotest.failf "seed %d: replayed term is not alpha-equal" seed
        | Error msg -> Alcotest.failf "seed %d: %s" seed msg
      done)

let test_replay_detects_forged_log () =
  let saved = !Provenance.enabled in
  Provenance.enabled := true;
  Fun.protect
    ~finally:(fun () -> Provenance.enabled := saved)
    (fun () ->
      let rng = Random.State.make [| 11 |] in
      let pre = Gen.proc2 rng ~size:30 in
      let _, report = Optimizer.optimize_value pre in
      let forged = entry "made-up" "nowhere" "" (-100) (-100) :: report.Optimizer.prov in
      match Optimizer.replay pre forged with
      | Ok _ -> Alcotest.fail "forged derivation accepted"
      | Error _ -> ())

let test_budget_exhausted_event () =
  let saved = !Provenance.enabled in
  Provenance.enabled := true;
  Metrics.reset_all ();
  Profile.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Profile.enabled := false;
      Metrics.reset_all ();
      Provenance.enabled := saved)
    (fun () ->
      let config = { Optimizer.o3 with Optimizer.penalty_limit = 1 } in
      let rng = Random.State.make [| 7 |] in
      (* keep optimizing random terms until one accrues expansion penalty *)
      let rec find_truncated attempt =
        if attempt > 200 then Alcotest.fail "no term exhausted the budget"
        else begin
          let pre = Gen.proc2 rng ~size:60 in
          let _, report = Optimizer.optimize_value ~config pre in
          let hit =
            List.exists
              (fun e -> e.Provenance.pv_rule = "budget-exhausted")
              report.Optimizer.prov
          in
          if not hit then find_truncated (attempt + 1)
        end
      in
      find_truncated 0;
      check tbool "profile counted the truncation" true
        (Metrics_probe.count ~source:"optimizer" "budget_exhausted" >= 1))

let test_prov_codec_roundtrip () =
  let logs =
    [
      [];
      [ entry "beta" "(proc/1 ...)" "" (-4) (-3) ];
      [
        entry "q.index-select" "(select ...)" "index on field 2 of <oid 0x00000a>" (-12) (-40);
        entry "expand" "3 call sites" "" 120 (-9);
        entry "weird \"names\"\n" "site\twith\ttabs" "π∈ℝ" max_int min_int;
      ];
    ]
  in
  List.iter
    (fun log ->
      let decoded = Tml_store.Prov_codec.decode (Tml_store.Prov_codec.encode log) in
      check tbool "codec round trip" true (Provenance.equal log decoded))
    logs;
  (match Tml_store.Prov_codec.decode "XXXX" with
  | exception Tml_store.Prov_codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let truncated =
    let s = Tml_store.Prov_codec.encode (List.nth logs 2) in
    String.sub s 0 (String.length s - 3)
  in
  match Tml_store.Prov_codec.decode truncated with
  | exception Tml_store.Prov_codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated log accepted"

(* a reflective specialization records provenance, persists it as a heap
   Bytes object behind the "provenance" attribute, and a second
   optimization of the same function records the same derivation *)
let test_reflect_provenance () =
  let saved = !Provenance.enabled in
  Provenance.enabled := true;
  Fun.protect
    ~finally:(fun () -> Provenance.enabled := saved)
    (fun () ->
      let program =
        Tml_frontend.Link.load
          "let sq(x: Int): Int = x * x do io.print_int(sq(3)) end"
      in
      let ctx = program.Tml_frontend.Link.ctx in
      let oid = Tml_frontend.Link.function_oid program "sq" in
      let r1 = Tml_reflect.Reflect.optimize ctx oid in
      let first = r1.Tml_reflect.Reflect.report.Optimizer.prov in
      check tbool "optimization records a derivation" true (first <> []);
      (match Tml_reflect.Reflect.provenance ctx r1.Tml_reflect.Reflect.oid with
      | Some stored -> check tbool "stored attribute decodes to the log" true
          (Provenance.equal first stored)
      | None -> Alcotest.fail "no provenance attribute on the optimized function");
      let r2 = Tml_reflect.Reflect.optimize ctx oid in
      check tbool "a second optimization records the same derivation" true
        (Provenance.equal first r2.Tml_reflect.Reflect.report.Optimizer.prov))

let () =
  Runtime.install ();
  Tml_query.Qprims.install ();
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception" `Quick test_span_exception;
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
          Alcotest.test_case "memory sink bound" `Quick test_memory_sink_bound;
          Alcotest.test_case "memory sink counts drops" `Quick test_memory_sink_counts_drops;
          Alcotest.test_case "tid stamping" `Quick test_tid_stamping;
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "chrome/jsonl shape" `Quick test_chrome_shape;
          Alcotest.test_case "chrome sink streams" `Quick test_chrome_sink_streams;
          Alcotest.test_case "file sinks under 4 threads" `Quick test_file_sinks_concurrent;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "vm.run_steps" `Quick test_vm_run_metric;
          Alcotest.test_case "reservoir under concurrency" `Quick test_reservoir_concurrent;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "no speccache source" `Quick test_no_speccache_source;
          Alcotest.test_case "gc source" `Quick test_gc_source;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "bounded ring" `Quick test_slowlog_ring;
          Alcotest.test_case "codec round trip" `Quick test_slowlog_codec;
          Alcotest.test_case "persistence" `Quick test_slowlog_persistence;
          Alcotest.test_case "rendering" `Quick test_slowlog_rendering;
        ] );
      ( "vmprof",
        [ Alcotest.test_case "step attribution" `Quick test_vmprof_attribution ] );
      ( "provenance",
        [
          Alcotest.test_case "basics" `Quick test_provenance_basics;
          Alcotest.test_case "replay property" `Quick test_replay_property;
          Alcotest.test_case "replay rejects forged log" `Quick test_replay_detects_forged_log;
          Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted_event;
          Alcotest.test_case "codec round trip" `Quick test_prov_codec_roundtrip;
          Alcotest.test_case "reflect + second optimization" `Quick test_reflect_provenance;
        ] );
    ]
