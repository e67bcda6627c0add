(* E16 — query processing at scale: paged persistent relations, durable
   secondary indexes and cost-based planning (docs/QUERY.md).

   Three workloads, each comparing the naive plan against the one
   Reflect.optimize's store-aware rules produce:

     point-select   a Zipfian stream of point queries over a relation of
                    ROWS rows: full-scan [select] vs the [indexselect]
                    the q.index-select rewrite installs (each optimized
                    query pays for its own rewrite pass).
                    Acceptance: >= 50x at 10^6 rows.

     join-order     a 3-relation chain whose left-deep order explodes
                    (A jn B is a cross product) while the statistics
                    expose a selective right-deep order.  Naive chain vs
                    the q.join-order + q.index-join plan.
                    Acceptance: >= 5x.

     paging         the same point query against an on-disk store,
                    reopened cold: the sealed row pages stay on disk —
                    the query faults the index sibling and the one page
                    holding its answer, not the relation.  A full scan
                    then faults everything, for contrast.

   Wall times vary between machines; the speedup ratios are what the
   acceptance thresholds bind.  JSON rows (experiment E16) are merged
   into BENCH_optimizer.json — existing E16 rows are replaced, every
   other experiment's rows are kept (override the path with
   TML_BENCH_JSON).

   Run with --smoke for the scaled-down mode used by @bench-smoke. *)

open Tml_core
open Tml_vm
open Tml_query

let smoke_mode = Array.exists (fun a -> a = "--smoke") Sys.argv

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string s with _ -> default)
  | None -> default

(* sizes: full mode exercises the million-row regime the tentpole names;
   smoke keeps @bench-smoke under a second of query work *)
let n_rows = getenv_int "TML_QUERY_BENCH_ROWS" (if smoke_mode then 20_000 else 1_000_000)
let n_join = getenv_int "TML_QUERY_BENCH_JOIN_ROWS" (if smoke_mode then 500 else 10_000)
let n_paged = getenv_int "TML_QUERY_BENCH_PAGED_ROWS" (if smoke_mode then 20_000 else 200_000)
let n_queries = if smoke_mode then 200 else 2000
let n_naive_queries = if smoke_mode then 3 else 5

let json_rows : string list ref = ref []
let json_add fmt = Printf.ksprintf (fun s -> json_rows := s :: !json_rows) fmt

(* Merge this run's rows into the shared bench result file: keep every
   other experiment's rows, replace any previous E16 rows.  The file is
   our own writer's format — a JSON array, one object per line. *)
let write_json () =
  let path =
    Option.value (Sys.getenv_opt "TML_BENCH_JSON") ~default:"BENCH_optimizer.json"
  in
  let kept =
    if Sys.file_exists path then
      In_channel.with_open_text path (fun ic ->
          In_channel.input_lines ic
          |> List.filter_map (fun line ->
                 let t = String.trim line in
                 if String.length t = 0 || t = "[" || t = "]" then None
                 else
                   let t = if String.length t > 0 && t.[String.length t - 1] = ',' then
                       String.sub t 0 (String.length t - 1)
                     else t
                   in
                   let contains_e16 =
                     let needle = {|"experiment":"E16"|} in
                     let nl = String.length needle and tl = String.length t in
                     let rec scan i = i + nl <= tl && (String.sub t i nl = needle || scan (i + 1)) in
                     scan 0
                   in
                   if contains_e16 then None else Some t))
    else []
  in
  let rows = kept @ List.rev !json_rows in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n  ";
      output_string oc (String.concat ",\n  " rows);
      output_string oc "\n]\n");
  Printf.printf "\nmerged %d E16 records into %s (%d total)\n" (List.length !json_rows)
    path (List.length rows)

let section title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n%!"

let time_s f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  v, Unix.gettimeofday () -. t0

(* harmonic Zipf over [0, n): rank-1 keys dominate, the tail still gets
   touched — the cache-unfriendly distribution of docs/STORE.md E-zipf *)
let zipf_sampler rng n =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !total
  done;
  fun () ->
    let u = Random.State.float rng !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* ------------------------------------------------------------------ *)
(* term plumbing (the same shapes the unit tests drive)                 *)
(* ------------------------------------------------------------------ *)

let select_src ~rel ~key =
  Printf.sprintf
    "(select proc(x pce! pcc!) ([] x 0 cont(t) (== t %d cont() (pcc! true) cont() (pcc! \
     false))) <oid %d> ce! k!)"
    key (Oid.to_int rel)

let join_pred ~f1 ~f2 =
  Printf.sprintf
    "proc(x y jce! jcc!) ([] x %d cont(ja) ([] y %d cont(jb) (== ja jb cont() (jcc! true) \
     cont() (jcc! false))))"
    f1 f2

let join_chain_src ~a ~b ~c =
  Printf.sprintf "(join %s <oid %d> <oid %d> ce! cont(t) (join %s t <oid %d> ce! k!))"
    (join_pred ~f1:0 ~f2:0) (Oid.to_int a) (Oid.to_int b)
    (join_pred ~f1:3 ~f2:0) (Oid.to_int c)

let run_to_rel ctx (a : Term.app) =
  let frees = Ident.Set.elements (Term.free_vars_app a) in
  let env =
    List.fold_left
      (fun env id ->
        match id.Ident.name with
        | "k" -> Ident.Map.add id (Value.Halt true) env
        | "ce" -> Ident.Map.add id (Value.Halt false) env
        | _ -> env)
      Ident.Map.empty frees
  in
  match Eval.run_app ctx ~env a with
  | Eval.Done (Value.Oidv out) -> out
  | o -> Format.kasprintf failwith "query did not return a relation: %a" Eval.pp_outcome o

let optimize ctx a = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) a

(* ------------------------------------------------------------------ *)
(* point-select: Zipfian stream, scan vs indexselect                    *)
(* ------------------------------------------------------------------ *)

let bench_point_select () =
  section
    (Printf.sprintf
       "E16 — Zipfian point-select over %d rows\n(full scan vs index probe; optimized \
        queries pay for their rewrite)" n_rows)
  ;
  Qprims.install ();
  let ctx = Runtime.create (Value.Heap.create ()) in
  let rel =
    Rel.create ctx ~name:"events"
      (List.init n_rows (fun i -> [| Value.Int i; Value.Int (i mod 97) |]))
  in
  Rel.add_index ctx rel 0;
  let rng = Random.State.make [| 16; n_rows |] in
  let zipf = zipf_sampler rng n_rows in
  (* naive: run the select term as written — a full scan per query *)
  let _, naive_total =
    time_s (fun () ->
        for _ = 1 to n_naive_queries do
          ignore (run_to_rel ctx (Sexp.parse_app (select_src ~rel ~key:(zipf ()))))
        done)
  in
  let naive_per_query = naive_total /. float_of_int n_naive_queries in
  (* optimized: rewrite (q.index-select fires against the runtime index
     binding) then run; the rewrite cost is part of each query *)
  let _, opt_total =
    time_s (fun () ->
        for _ = 1 to n_queries do
          let a = Sexp.parse_app (select_src ~rel ~key:(zipf ())) in
          ignore (run_to_rel ctx (optimize ctx a))
        done)
  in
  let opt_per_query = opt_total /. float_of_int n_queries in
  let speedup = naive_per_query /. opt_per_query in
  Printf.printf "  naive scan:    %8.3f ms/query  (%d queries)\n" (1e3 *. naive_per_query)
    n_naive_queries;
  Printf.printf "  indexselect:   %8.3f ms/query  (%d queries, rewrite included)\n"
    (1e3 *. opt_per_query) n_queries;
  Printf.printf "  speedup:       %8.1fx  (acceptance: >= 50x at 10^6 rows)%s\n" speedup
    (if speedup >= 50.0 then "" else "  ** below threshold **");
  json_add
    {|{"experiment":"E16","workload":"point-select","rows":%d,"naive_ms":%.3f,"optimized_ms":%.4f,"speedup":%.1f}|}
    n_rows (1e3 *. naive_per_query) (1e3 *. opt_per_query) speedup

(* ------------------------------------------------------------------ *)
(* join order: exploding left-deep chain vs the planned right-deep one  *)
(* ------------------------------------------------------------------ *)

let bench_join_order () =
  section
    (Printf.sprintf
       "E16 — cost-based join order, |A|=%d |B|=10 |C|=30\n(A jn B is a cross product; \
        statistics steer the planner to (B jn C) jn A)" n_join);
  Qprims.install ();
  let ctx = Runtime.create (Value.Heap.create ()) in
  (* A jn B on field 0 matches everything (all 7s); B jn C on B.1 = C.0
     is one-to-one.  Left-deep materializes |A|*|B| rows and probes each
     against C; right-deep probes C's index 10 times. *)
  let a =
    Rel.create ctx ~name:"A" (List.init n_join (fun i -> [| Value.Int 7; Value.Int i |]))
  in
  let b = Rel.create ctx ~name:"B" (List.init 10 (fun i -> [| Value.Int 7; Value.Int i |])) in
  let c =
    Rel.create ctx ~name:"C"
      (List.init 30 (fun i -> [| Value.Int i; Value.Int (1000 + i) |]))
  in
  Rel.add_index ctx b 0;
  Rel.add_index ctx b 1;
  Rel.add_index ctx c 0;
  let term = Sexp.parse_app (join_chain_src ~a ~b ~c) in
  let planned, plan_s = time_s (fun () -> optimize ctx term) in
  let naive_out, naive_s = time_s (fun () -> run_to_rel ctx term) in
  let planned_out, planned_s = time_s (fun () -> run_to_rel ctx planned) in
  let planned_total = plan_s +. planned_s in
  if Rel.length ctx naive_out <> Rel.length ctx planned_out then
    failwith "join plans disagree on cardinality";
  let speedup = naive_s /. planned_total in
  Printf.printf "  result rows:   %d (both plans)\n" (Rel.length ctx naive_out);
  Printf.printf "  naive chain:   %8.1f ms\n" (1e3 *. naive_s);
  Printf.printf "  planned chain: %8.1f ms  (+ %.2f ms planning)\n" (1e3 *. planned_s)
    (1e3 *. plan_s);
  Printf.printf "  speedup:       %8.1fx  (acceptance: >= 5x)%s\n" speedup
    (if speedup >= 5.0 then "" else "  ** below threshold **");
  json_add
    {|{"experiment":"E16","workload":"join-order","rows":%d,"result_rows":%d,"naive_ms":%.1f,"planned_ms":%.1f,"planning_ms":%.2f,"speedup":%.1f}|}
    n_join (Rel.length ctx naive_out) (1e3 *. naive_s) (1e3 *. planned_s) (1e3 *. plan_s)
    speedup

(* ------------------------------------------------------------------ *)
(* paging: cold store, the query faults pages — but only the ones it     *)
(* needs                                                                *)
(* ------------------------------------------------------------------ *)

let bench_paging () =
  section
    (Printf.sprintf
       "E16 — cold-fault vs warm-cache, %d rows on disk\n(an indexed point query faults \
        the index and one row page, not the relation)" n_paged);
  Qprims.install ();
  let path = Filename.temp_file "tml_query_bench" ".tmlstore" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let build () =
        let ps = Pstore.create ~fsync:false path in
        let ctx = Runtime.create (Pstore.heap ps) in
        let rel =
          Rel.create ctx ~name:"events"
            (List.init n_paged (fun i -> [| Value.Int i; Value.Int (i mod 97) |]))
        in
        Rel.add_index ctx rel 0;
        ignore (Pstore.commit ~root:rel ps);
        Pstore.close ps
      in
      let _, build_s = time_s build in
      Printf.printf "  built + committed in %.1f ms\n" (1e3 *. build_s);
      (* cold open: nothing resident beyond the root header *)
      let ps = Pstore.open_ ~fsync:false path in
      let ctx = Runtime.create (Pstore.heap ps) in
      let rel = match Pstore.root ps with Some oid -> oid | None -> failwith "no root" in
      Relcore.page_faults := 0;
      Rel.index_loads := 0;
      Rel.index_builds := 0;
      (* a key in the middle of the relation: its row lives in a sealed
         page (the last rows sit in the unsealed tail, which the header
         carries for free) *)
      let probe_key = n_paged / 2 in
      let query () =
        let a = Sexp.parse_app (select_src ~rel ~key:probe_key) in
        Rel.length ctx (run_to_rel ctx (optimize ctx a))
      in
      let hits, cold_s = time_s query in
      let r = Rel.get ctx rel in
      let heap = ctx.Runtime.heap in
      let cold_loaded = Relcore.pages_loaded heap r and total = Relcore.page_count r in
      let cold_faults = !Relcore.page_faults in
      if hits <> 1 then failwith "cold point query returned wrong cardinality";
      Printf.printf
        "  cold query:    %8.3f ms  (%d/%d row pages resident, %d page faults,\n\
        \                               index loads=%d rebuilds=%d)\n" (1e3 *. cold_s)
        cold_loaded total cold_faults !Rel.index_loads !Rel.index_builds;
      let _, warm_s = time_s query in
      Printf.printf "  warm query:    %8.3f ms\n" (1e3 *. warm_s);
      (* the contrast: a full scan faults every sealed page *)
      let (), scan_s = time_s (fun () -> Rel.iteri ctx rel (fun _ _ -> ())) in
      let scan_loaded = Relcore.pages_loaded heap r in
      Printf.printf "  full scan:     %8.1f ms  (%d/%d row pages resident after)\n"
        (1e3 *. scan_s) scan_loaded total;
      Pstore.close ps;
      if cold_loaded >= total then
        Printf.printf "  ** cold query faulted every page — paging is not demand-driven **\n";
      json_add
        {|{"experiment":"E16","workload":"paging","rows":%d,"pages":%d,"cold_pages_loaded":%d,"cold_faults":%d,"index_loads":%d,"index_rebuilds":%d,"cold_ms":%.3f,"warm_ms":%.3f,"scan_ms":%.1f,"scan_pages_loaded":%d}|}
        n_paged total cold_loaded cold_faults !Rel.index_loads !Rel.index_builds
        (1e3 *. cold_s) (1e3 *. warm_s) (1e3 *. scan_s) scan_loaded)

let () =
  bench_point_select ();
  bench_join_order ();
  bench_paging ();
  write_json ()
