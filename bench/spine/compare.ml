(* [spine.exe compare BASE.json... -- NEW.json...]: two sets of runs,
   one verdict per workload x end-to-end metric.

   The rule is the benchmark's own: a side wins a pair when its run
   reads better; a gain is claimed only when the new side wins at least
   nine tenths of the pairs and its median beats the base median by more
   than the base's interquartile spread.  A median worse than the base
   by more than the metric's bound is a regression; a base spread wider
   than the bound leaves the metric unresolved unless every new run
   beats every base run. *)

type metric = { name : string; unit_ : string; lower : bool; bound : float }

type run = { workload : string; values : (string * float) list; attempted : int; failed : int }

let runs_of_file path =
  let doc = Sjson.read_file path in
  let one r =
    {
      workload = Sjson.(to_string (member "workload" r));
      values =
        List.map (fun (k, v) -> (k, Sjson.(to_float (member "value" v)))) Sjson.(to_assoc (member "metrics" r));
      attempted = Sjson.(to_int (member "attempted" r));
      failed = Sjson.(to_int (member "failed" r));
    }
  in
  match Sjson.member "runs" doc with Sjson.Arr rs -> List.map one rs | _ -> [ one doc ]

type verdict = Better | Worse | Unresolved | Unchanged

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

(* [judge m base fresh] over two value lists in run order *)
let judge m base fresh =
  let q1, med_b, q3 = Quant.quartiles base in
  let _, med_n, _ = Quant.quartiles fresh in
  let improves a b = if m.lower then a < b else a > b in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base fresh in
  let won_new = List.length (List.filter (fun (b, n) -> improves n b) pairs) in
  let won_base = List.length (List.filter (fun (b, n) -> improves b n) pairs) in
  let gain = if m.lower then med_b -. med_n else med_n -. med_b in
  let n_pairs = List.length pairs in
  let verdict =
    if -.gain > m.bound *. Float.abs med_b then Worse
    else if n_pairs > 0 && 10 * won_new >= 9 * n_pairs && gain > q3 -. q1 then Better
    else if (q3 -. q1) > m.bound *. Float.abs med_b
            && not (List.for_all (fun n -> List.for_all (fun b -> improves n b) base) fresh)
    then Unresolved
    else Unchanged
  in
  (verdict, won_new, won_base, n_pairs)

let error_rate runs =
  let a = List.fold_left (fun acc r -> acc + r.attempted) 0 runs in
  let f = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
  Quant.ratio (float_of_int f) (float_of_int a)

(* prints the table; returns the exit code *)
let run ~metrics ~base ~fresh =
  let base = List.concat_map runs_of_file base and fresh = List.concat_map runs_of_file fresh in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) base) in
  let code = ref 0 in
  Printf.printf "%-11s %-16s %-34s %-34s %-9s %s\n" "workload" "metric" "base median [q1 q3]"
    "new median [q1 q3]" "pairs" "verdict";
  List.iter
    (fun w ->
      let b = List.filter (fun r -> r.workload = w) base
      and n = List.filter (fun r -> r.workload = w) fresh in
      if n = [] then Printf.printf "%-11s (no new runs)\n" w
      else begin
        List.iter
          (fun m ->
            let vals rs = List.filter_map (fun r -> List.assoc_opt m.name r.values) rs in
            let bv = vals b and nv = vals n in
            if bv <> [] && nv <> [] then begin
              let verdict, won_new, won_base, pairs = judge m bv nv in
              if verdict = Worse then code := 1;
              let show vs =
                let q1, med, q3 = Quant.quartiles vs in
                Printf.sprintf "%.6g [%.6g %.6g] %s" med q1 q3 m.unit_
              in
              Printf.printf "%-11s %-16s %-34s %-34s %2d:%-2d/%-2d %s\n" w m.name (show bv) (show nv)
                won_new won_base pairs (verdict_name verdict)
            end)
          metrics;
        let eb = error_rate b and en = error_rate n in
        let rose = en > eb +. 0.001 in
        if rose then code := 1;
        Printf.printf "%-11s %-16s %-34.6f %-34.6f %-9s %s\n" w "error_rate" eb en ""
          (if rose then "worse" else "unchanged")
      end)
    workloads;
  !code
