type t = {
  mutable commits : int;
  mutable records_written : int;
  mutable bytes_written : int;
  mutable faults : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable recovery_truncations : int;
  mutable truncated_bytes : int;
  mutable compactions : int;
}

let create () =
  {
    commits = 0;
    records_written = 0;
    bytes_written = 0;
    faults = 0;
    cache_hits = 0;
    cache_misses = 0;
    recovery_truncations = 0;
    truncated_bytes = 0;
    compactions = 0;
  }

let reset t =
  t.commits <- 0;
  t.records_written <- 0;
  t.bytes_written <- 0;
  t.faults <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.recovery_truncations <- 0;
  t.truncated_bytes <- 0;
  t.compactions <- 0

let hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int total

let fields t =
  [
    "commits", t.commits;
    "records_written", t.records_written;
    "bytes_written", t.bytes_written;
    "faults", t.faults;
    "cache_hits", t.cache_hits;
    "cache_misses", t.cache_misses;
    "recovery_truncations", t.recovery_truncations;
    "truncated_bytes", t.truncated_bytes;
    "compactions", t.compactions;
  ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-21s %d" name v)
    (fields t);
  Format.fprintf ppf "@,%-21s %.3f" "cache_hit_rate" (hit_rate t);
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let register_metrics ?(name = "store") t =
  Tml_obs.Metrics.register_source ~name
    ~snapshot:(fun () ->
      List.map (fun (k, v) -> (k, Tml_obs.Metrics.I v)) (fields t)
      @ [ ("cache_hit_rate", Tml_obs.Metrics.F (hit_rate t)) ])
    ~reset:(fun () -> reset t)

let to_json t =
  let ints =
    List.map (fun (name, v) -> Printf.sprintf "%S: %d" name v) (fields t)
  in
  Printf.sprintf "{%s, \"cache_hit_rate\": %.4f}" (String.concat ", " ints) (hit_rate t)
