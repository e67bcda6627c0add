(* Unit tests for the benchmark's own helpers: order statistics, the
   JSON reader on recorded tmld output, span self times and the request
   decomposition, seeded op streams and the compare verdicts. *)

open Tml_spine

let check = Alcotest.check
let feq = Alcotest.float 1e-9

(* --- order statistics ------------------------------------------------ *)

let one_to n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = List.rev (one_to 10) in
  check feq "p50" 5. (Quant.percentile xs 50.);
  check feq "p90" 9. (Quant.percentile xs 90.);
  check feq "p99" 10. (Quant.percentile xs 99.);
  check feq "p100" 10. (Quant.percentile xs 100.);
  check feq "p1 is the minimum" 1. (Quant.percentile xs 1.);
  (* 1 000 samples: p99 is the 990th, with ten samples beyond it *)
  check feq "p99 of 1000" 990. (Quant.percentile (one_to 1000) 99.);
  check feq "empty" 0. (Quant.percentile [] 50.)

(* the values Python's statistics.quantiles(xs, n=4) returns *)
let test_quartiles () =
  let q = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9)) in
  check q "1..10" (2.75, 5.5, 8.25) (Quant.quartiles (one_to 10));
  check q "1..4" (1.25, 2.5, 3.75) (Quant.quartiles [ 4.; 2.; 3.; 1. ]);
  check q "two samples" (0.75, 1.5, 2.25) (Quant.quartiles [ 2.; 1. ]);
  check q "one sample" (7., 7., 7.) (Quant.quartiles [ 7. ]);
  check feq "median even" 2.5 (Quant.median [ 4.; 1.; 3.; 2. ]);
  check feq "geomean" 2. (Quant.geomean [ 1.; 4. ])

(* --- JSON reader on recorded tmld output ------------------------------ *)

(* a Stat reply recorded from tmld after one session created an indexed
   relation and committed 20 single-row inserts *)
let recorded_stat =
  {|{"session":{"id":0,"epoch":22,"staged_objects":2,"staged_bytes":77},"metrics":{"counters":{"server.busy":0,"server.commits":21,"server.conflicts":0,"server.connections":1,"server.evals":23,"server.group_commits":21,"server.slow_queries":0},"gauges":{},"histograms":{"commit.group_wait_s":{"count":21,"sum":0.0442572,"mean":0.00210748,"min":0.00205994,"max":0.00253415,"p50":0.00206494,"p99":0.00253415},"eval_lock.hold_s":{"count":45,"sum":0.00432253,"mean":9.60562e-05,"min":7.86781e-06,"max":0.00111508,"p50":5.81741e-05,"p99":0.00111508},"eval_lock.wait_s":{"count":45,"sum":0.000180006,"mean":4.00013e-06,"min":1.90735e-06,"max":2.69413e-05,"p50":3.09944e-06,"p99":2.69413e-05},"server.commit_latency_s":{"count":21,"sum":0.0615351,"mean":0.00293024,"min":0.00220799,"max":0.00416017,"p50":0.00276303,"p99":0.00416017},"vm.run_steps":{"count":23,"sum":282.0,"mean":12.2609,"min":6.0,"max":26.0,"p50":12.0,"p99":26.0}},"sources":{"optimizer":{"optimize_calls":0,"reduce_passes":0,"reduce_s":0.0,"expand_passes":0,"expand_s":0.0,"validate_passes":0,"validate_s":0.0,"fires.subst":0,"fires.remove":0,"fires.reduce":0,"fires.eta":0,"fires.fold":0,"fires.case_subst":0,"fires.y_remove":0,"fires.y_reduce":0,"fires.domain":0,"budget_exhausted":0,"memo_hits":0,"memo_misses":0,"hashcons.interned":0,"hashcons.phys_hits":0,"hashcons.struct_hits":0,"hashcons.table":0},"query":{"page_faults":0,"pages_sealed":0,"row_cache_builds":0,"relations_created":1,"inserts":20,"index_builds":1,"index_loads":0,"index_probes":0,"stats_updates":21},"rules":{},"server":{"sessions_active":1,"epoch":22,"fsync_amortization":1.0,"slowlog_entries":0,"slowlog_dropped":0},"speccache":{"hits":0,"misses":0,"stores":0,"verify_failures":0,"invalidations":0,"evictions":0,"entries":0},"store.log":{"staged_count":0,"seq":22,"fsync":1,"snapshots_pinned":1,"objects":119,"file_bytes":14327},"tier":{"promotions":0,"deopts":0,"runs":0,"rejections":0,"promoted":0,"compiled_units":0}}}}|}

let test_stat_snapshot () =
  let doc = Sjson.parse recorded_stat in
  let reg = Sjson.member "metrics" doc in
  check feq "counter" 21. (Server_load.counter reg "server.commits");
  check feq "histogram count" 45. (Server_load.hist reg "eval_lock.hold_s" "count");
  check feq "histogram sum" 0.00432253 (Server_load.hist reg "eval_lock.hold_s" "sum");
  check feq "exponent" 7.86781e-06 (Server_load.hist reg "eval_lock.hold_s" "min");
  check feq "float-printed count" 282. (Server_load.hist reg "vm.run_steps" "sum");
  check feq "dotted source name" 14327. (Server_load.source reg "store.log" "file_bytes");
  check feq "dotted key" 0. (Server_load.source reg "optimizer" "hashcons.table");
  check feq "session facts" 2. Sjson.(to_float (path [ "session"; "staged_objects" ] doc));
  check feq "absent reads 0" 0. (Server_load.counter reg "server.nonexistent")

(* a commit's request span and its seal instant, recorded from
   tmld --trace-jsonl *)
let recorded_spans =
  [
    {|{"name":"server.commit","cat":"server","ph":"B","ts":1792111980476727.000,"pid":1,"tid":3,"args":{"session":0,"trace":600834052,"parent":0}}|};
    {|{"name":"commit.sealed","cat":"server","ph":"i","ts":1792111980479256.000,"pid":1,"tid":3,"args":{"session":0,"trace":600834052,"group":1,"epoch":2}}|};
    {|{"name":"server.commit","cat":"server","ph":"E","ts":1792111980479262.000,"pid":1,"tid":3}|};
  ]

let test_span_lines () =
  (* concurrent sessions can put two events on one line *)
  let stream =
    match recorded_spans with
    | [ b; i; e ] -> b ^ "\n" ^ i ^ e ^ "\n\n"
    | _ -> assert false
  in
  let spans, instants = Spans.of_events (Sjson.parse_all stream) in
  match (spans, instants) with
  | [ s ], [ i ] ->
    check Alcotest.string "name" "server.commit" s.Spans.name;
    check Alcotest.int "trace id" 600834052 (Spans.arg_int "trace" s.Spans.args);
    check feq "duration us" 2535. (Spans.dur s);
    check Alcotest.int "seal joins the trace" 600834052 (Spans.arg_int "trace" i.Spans.i_args);
    check Alcotest.int "to its group" 1 (Spans.arg_int "group" i.Spans.i_args)
  | _ -> Alcotest.fail "expected one span and one instant"

let test_json_roundtrip () =
  let v =
    Sjson.Obj
      [ ("s", Sjson.Str "a\"b\\c\n\t\xc3\xa9"); ("n", Sjson.Num 1.2034); ("i", Sjson.Num 57578332.);
        ("l", Sjson.Arr [ Sjson.Bool true; Sjson.Null; Sjson.Num (-0.5) ]) ]
  in
  check Alcotest.bool "round trip" true (Sjson.parse (Sjson.to_json v) = v);
  check Alcotest.string "integers print whole" "57578332" (Sjson.number_to_string 57578332.);
  check Alcotest.bool "\\u escape" true (Sjson.parse {|"\u00e9"|} = Sjson.Str "\xc3\xa9");
  check Alcotest.bool "rejects trailing" true
    (match Sjson.parse "{} x" with _ -> false | exception Sjson.Parse_error _ -> true)

(* --- span self time --------------------------------------------------- *)

let ev ?(tid = 1) ?(args = []) ph name ts =
  Sjson.Obj
    ([ ("name", Sjson.Str name); ("ph", Sjson.Str ph); ("ts", Sjson.Num ts); ("pid", Sjson.Num 1.);
       ("tid", Sjson.Num (float_of_int tid)) ]
    @ if args = [] then [] else [ ("args", Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.Num v)) args)) ])

let test_self_time () =
  (* parent [0,100]; children [10,30] and [20,40] overlap, [90,120]
     sticks out past the parent: 40 us covered, 60 us self *)
  let spans, _ =
    Spans.of_events
      [ ev "B" "p" 0.; ev "B" "a" 10.; ev "E" "a" 30.; ev "E" "p" 100. ]
  in
  let other, _ = Spans.of_events [ ev ~tid:2 "B" "b" 20.; ev ~tid:2 "E" "b" 40.; ev ~tid:2 "B" "c" 90.; ev ~tid:2 "E" "c" 120. ] in
  let p = List.find (fun s -> s.Spans.name = "p") spans in
  let a = List.find (fun s -> s.Spans.name = "a") spans in
  check Alcotest.int "nesting" p.Spans.id a.Spans.parent;
  check feq "self" 60. (Spans.self_time p (a :: other));
  check feq "leaf" 20. (Spans.self_time a [])

(* one get (eval) and one put (eval + commit) with hand-placed server
   phases: the layers must partition each client round trip *)
let test_decompose () =
  let bench, _ =
    Spans.of_events
      [
        ev "B" "bench.get" 0.; ev ~args:[ ("trace", 7.) ] "B" "client.request" 1.; ev "E" "client.request" 99.;
        ev "E" "bench.get" 100.;
        ev "B" "bench.put" 200.; ev ~args:[ ("trace", 8.) ] "B" "client.request" 201.; ev "E" "client.request" 230.;
        ev ~args:[ ("trace", 9.) ] "B" "client.request" 231.; ev "E" "client.request" 299.; ev "E" "bench.put" 300.;
      ]
  in
  let server, instants =
    Spans.of_events
      [
        ev ~tid:5 ~args:[ ("trace", 7.) ] "B" "server.eval" 11.; ev ~tid:5 "B" "eval_lock.wait" 12.;
        ev ~tid:5 "E" "eval_lock.wait" 32.; ev ~tid:5 "B" "eval_lock.hold" 32.; ev ~tid:5 "E" "eval_lock.hold" 82.;
        ev ~tid:5 "E" "server.eval" 89.;
        ev ~tid:5 ~args:[ ("trace", 8.) ] "B" "server.eval" 205.; ev ~tid:5 "B" "eval_lock.hold" 206.;
        ev ~tid:5 "E" "eval_lock.hold" 220.; ev ~tid:5 "E" "server.eval" 225.;
        ev ~tid:5 ~args:[ ("trace", 9.) ] "B" "server.commit" 235.; ev ~tid:5 "B" "eval_lock.hold" 236.;
        ev ~tid:5 "E" "eval_lock.hold" 240.; ev ~tid:5 "B" "commit.submit" 240.;
        ev ~tid:9 ~args:[ ("group", 4.) ] "B" "commit.group" 250.; ev ~tid:9 ~args:[ ("group", 4.) ] "B" "commit.fsync" 260.;
        ev ~tid:9 "E" "commit.fsync" 280.; ev ~tid:9 "E" "commit.group" 285.;
        ev ~tid:5 "E" "commit.submit" 288.;
        ev ~tid:5 ~args:[ ("trace", 9.); ("group", 4.) ] "i" "commit.sealed" 289.;
        ev ~tid:5 "E" "server.commit" 290.;
      ]
  in
  match Spans.decompose ~ops:[ "bench.get"; "bench.put" ] ~bench ~server ~instants with
  | [ (_, get); (_, put) ] ->
    check feq "get wire" 20. get.Spans.wire;
    check feq "get handler self" 8. get.Spans.handler_self;
    check feq "get lock wait" 20. get.Spans.lock_wait;
    check feq "get lock hold" 50. get.Spans.lock_hold;
    check feq "get residual" 2. (get.Spans.total -. Spans.layer_sum get);
    check feq "put fsync" 20. put.Spans.fsync;
    check feq "put group self" 15. put.Spans.commit_group;
    check feq "put submit self" 13. put.Spans.commit_submit;
    check feq "put lock hold" 18. put.Spans.lock_hold;
    check feq "put residual" 3. (put.Spans.total -. Spans.layer_sum put)
  | l -> Alcotest.failf "expected two ops, got %d" (List.length l)

(* --- seeded op streams ------------------------------------------------ *)

let stream ~seed ~session workload mix =
  let g = Opgen.create ~seed ~workload ~session ~rows:10_000 mix in
  List.init 2000 (fun _ -> Opgen.next g)

let mixed = { Opgen.get_pct = 45; put_pct = 45 }

let test_opgen () =
  let a = stream ~seed:1996 ~session:0 "mixed" mixed in
  check Alcotest.bool "same seed, same ops and keys" true (a = stream ~seed:1996 ~session:0 "mixed" mixed);
  check Alcotest.bool "another seed differs" true (a <> stream ~seed:1997 ~session:0 "mixed" mixed);
  check Alcotest.bool "sessions differ" true (a <> stream ~seed:1996 ~session:1 "mixed" mixed);
  let count f = List.length (List.filter f a) in
  check Alcotest.int "45% gets" 900 (count (function Opgen.Get _ -> true | _ -> false));
  check Alcotest.int "45% puts" 900 (count (function Opgen.Put _ -> true | _ -> false));
  check Alcotest.int "10% scans" 200 (count (function Opgen.Scan _ -> true | _ -> false));
  check Alcotest.bool "keys in range" true
    (List.for_all (function Opgen.Get k -> k >= 1 && k <= 10_000 | Opgen.Scan v -> v >= 0 && v < 97 | _ -> true) a);
  (* Zipf: the hottest key dominates any cold one *)
  let g = stream ~seed:3 ~session:0 "read-point" { Opgen.get_pct = 100; put_pct = 0 } in
  let hits k = List.length (List.filter (( = ) (Opgen.Get k)) g) in
  check Alcotest.bool "skewed" true (hits 1 > 10 * max 1 (hits 5000));
  check Alcotest.int "scan expectation" 104 (Opgen.scan_expected ~rows:10_000 1);
  check Alcotest.int "scan expectation, v = 0" 103 (Opgen.scan_expected ~rows:10_000 0)

(* --- compare verdicts ------------------------------------------------- *)

let test_judge () =
  let m = { Compare.name = "p50_ms"; unit_ = "ms"; lower = true; bound = 0.1 } in
  let base = [ 10.; 10.2; 9.9; 10.1; 10.0; 9.8; 10.3; 10.1; 9.9; 10.0 ] in
  let verdict fresh = let v, _, _, _ = Compare.judge m base fresh in Compare.verdict_name v in
  check Alcotest.string "same runs" "unchanged" (verdict base);
  check Alcotest.string "clearly faster" "better" (verdict (List.map (fun x -> x *. 0.8) base));
  check Alcotest.string "slower past the bound" "worse" (verdict (List.map (fun x -> x *. 1.2) base));
  let noisy = [ 5.; 15.; 8.; 12.; 10.; 6.; 14.; 9.; 11.; 10. ] in
  let v, _, _, _ = Compare.judge m noisy (List.map (fun x -> x *. 1.02) noisy) in
  check Alcotest.string "spread wider than the bound" "unresolved" (Compare.verdict_name v)

let () =
  Alcotest.run "spine"
    [
      ( "quant",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] );
      ( "json",
        [ Alcotest.test_case "recorded Stat snapshot" `Quick test_stat_snapshot;
          Alcotest.test_case "recorded tmld span lines" `Quick test_span_lines;
          Alcotest.test_case "round trip" `Quick test_json_roundtrip ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "request decomposition" `Quick test_decompose ] );
      ("opgen", [ Alcotest.test_case "seeded streams" `Quick test_opgen ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_judge ]);
    ]
