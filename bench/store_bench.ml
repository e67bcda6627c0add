(* Store workload benchmark: commit latency and cold-open fault latency
   of the log-structured object store (docs/STORE.md).

   Unlike bench/main.ml this harness measures wall time, so numbers vary
   between machines; the JSON on stdout is meant for trend tracking, not
   for asserting absolute values.

     { "commit": ..., "cold_open": ... }

   Environment:
     TML_STORE_BENCH_OBJECTS   heap objects in the workload (default 2000)
     TML_STORE_BENCH_COMMITS   commit rounds measured        (default 50) *)

open Tml_vm
module Stats = Tml_store.Store_stats

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string s with _ -> default)
  | None -> default

let n_objects = getenv_int "TML_STORE_BENCH_OBJECTS" 2000
let n_commits = getenv_int "TML_STORE_BENCH_COMMITS" 50

let temp_store () =
  let path = Filename.temp_file "tml_store_bench" ".tmlstore" in
  Sys.remove path;
  path

(* wall time in µs, also observed into the metrics registry so the
   snapshot printed at the end carries every sample *)
let time_us ?metric f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  let us = (t1 -. t0) *. 1e6 in
  (match metric with
  | Some name -> Tml_obs.Metrics.observe (Tml_obs.Metrics.histogram name) us
  | None -> ());
  v, us

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let summarize samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  Printf.sprintf
    {|{ "samples": %d, "mean_us": %.1f, "p50_us": %.1f, "p90_us": %.1f, "p99_us": %.1f }|}
    (Array.length a) mean (percentile a 0.5) (percentile a 0.9) (percentile a 0.99)

(* a payload bulky enough that encoding cost is visible *)
let slots i =
  [| Value.Int i; Value.Str (String.make 64 (Char.chr (65 + (i mod 26)))); Value.Real (float_of_int i) |]

(* mutable arrays for the write workload; immutable vectors for the read
   workload, since an access dirties a mutable kind (docs/STORE.md) *)
let populate ?(kind = `Vector) ps n =
  let heap = Pstore.heap ps in
  for i = 0 to n - 1 do
    let obj =
      match kind with `Array -> Value.Array (slots i) | `Vector -> Value.Vector (slots i)
    in
    ignore (Value.Heap.alloc heap obj)
  done

(* ------------------------------------------------------------------ *)
(* Commit latency: each round mutates a slice of objects and commits    *)
(* ------------------------------------------------------------------ *)

let bench_commit () =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ps = Pstore.create path in
      populate ~kind:`Array ps n_objects;
      ignore (Pstore.commit ps);
      let heap = Pstore.heap ps in
      let dirty_per_round = max 1 (n_objects / 20) in
      let samples = ref [] in
      for round = 0 to n_commits - 1 do
        (* a commit writes only the objects whose contents changed: a
           store of the value already held (round 0 at object 0) is not
           one *)
        let changed = Hashtbl.create dirty_per_round in
        for k = 0 to dirty_per_round - 1 do
          let ix = (round + (k * 17)) mod n_objects in
          match Value.Heap.get heap (Tml_core.Oid.of_int ix) with
          | Value.Array slots ->
            if slots.(0) <> Value.Int (round * 1000) then Hashtbl.replace changed ix ();
            slots.(0) <- Value.Int (round * 1000)
          | _ -> ()
        done;
        let n, us = time_us ~metric:"store_bench.commit_us" (fun () -> Pstore.commit ps) in
        assert (n = Hashtbl.length changed);
        samples := us :: !samples
      done;
      let written = (Pstore.stats ps).Stats.bytes_written in
      Pstore.close ps;
      Printf.sprintf
        {|{ "objects_per_commit": %d, "latency": %s, "bytes_written": %d }|}
        dirty_per_round (summarize !samples) written)

(* ------------------------------------------------------------------ *)
(* Cold open: open the store, then fault a sample of objects one by one *)
(* ------------------------------------------------------------------ *)

let bench_cold_open () =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ps = Pstore.create path in
      populate ps n_objects;
      ignore (Pstore.commit ps);
      Pstore.close ps;
      let ps, open_us = time_us ~metric:"store_bench.open_us" (fun () -> Pstore.open_ path) in
      let loaded_after_open = Value.Heap.loaded_count (Pstore.heap ps) in
      let heap = Pstore.heap ps in
      let sample = min 500 n_objects in
      let samples = ref [] in
      for i = 0 to sample - 1 do
        let oid = Tml_core.Oid.of_int (i * (n_objects / sample)) in
        let _, us =
          time_us ~metric:"store_bench.first_access_us" (fun () -> Value.Heap.get heap oid)
        in
        samples := us :: !samples
      done;
      let faults = (Pstore.stats ps).Stats.faults in
      Pstore.close ps;
      Printf.sprintf
        {|{ "objects": %d, "open_us": %.1f, "loaded_after_open": %d, "first_access": %s, "faults": %d }|}
        n_objects open_us loaded_after_open (summarize !samples) faults)

let () =
  let commit = bench_commit () in
  let cold = bench_cold_open () in
  Printf.printf
    {|{
  "store_bench": {
    "commit": %s,
    "cold_open": %s,
    "metrics": %s
  }
}
|}
    commit cold
    (Tml_obs.Metrics.snapshot_json ())
