(* Metrics registry: counters, gauges and histograms with optional
   labels.  A counter or gauge may belong to a source, a named block of
   cells served together ([sources.tier.runs]); a source may instead be
   computed from live state when a snapshot is taken (the GC, the log,
   the server).  One snapshot endpoint renders everything as JSON; one
   [reset_all] zeroes every cell and resets every computed source. *)

type num = I of int | F of float

type counter = int ref
type gauge = float ref

(* Alongside the running aggregates, each histogram keeps a bounded ring
   of the most recent samples so percentile estimates (p50/p99 commit
   latency, batch sizes) need no pre-declared bucket boundaries. *)
let reservoir_size = 512

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_ring : float array;  (* last [reservoir_size] observations *)
  mutable h_ring_len : int;
  mutable h_ring_next : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Server threads observe into the same histograms concurrently; a
   single registry-wide mutex keeps the reservoir and its aggregates
   consistent (observations are rare and cheap, contention is nil). *)
let hist_lock = Mutex.create ()

let locked f =
  Mutex.lock hist_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock hist_lock) f

(* A source's cells are listed in creation order: a module's cells in
   the order it defines them, labelled ones in the order their events
   first happened. *)
type source =
  | Cells of (string * metric) list ref
  | Computed of { snapshot : unit -> (string * num) list; reset : unit -> unit }

let sources : (string, source) Hashtbl.t = Hashtbl.create 16

let full_name name labels =
  match labels with
  | [] -> name
  | _ ->
    let pairs = List.map (fun (k, v) -> k ^ "=" ^ v) labels in
    name ^ "{" ^ String.concat "," pairs ^ "}"

(* Creation is idempotent: asking for an existing name returns the same
   underlying cell, so call sites in loops need no caching of their own. *)
let cell ?source ?(labels = []) name make =
  let key = full_name name labels in
  match source with
  | None -> (
    match Hashtbl.find_opt registry key with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.replace registry key m;
      m)
  | Some src -> (
    let cells =
      match Hashtbl.find_opt sources src with
      | Some (Cells cells) -> cells
      | Some (Computed _) -> invalid_arg ("Metrics: source " ^ src ^ " is computed")
      | None ->
        let cells = ref [] in
        Hashtbl.replace sources src (Cells cells);
        cells
    in
    match List.assoc_opt key !cells with
    | Some m -> m
    | None ->
      let m = make () in
      cells := !cells @ [ (key, m) ];
      m)

let counter ?source ?labels name : counter =
  match cell ?source ?labels name (fun () -> Counter (ref 0)) with
  | Counter c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered with another type")

let inc c = incr c
let add c n = c := !c + n
let counter_value c = !c

let gauge ?source ?labels name : gauge =
  match cell ?source ?labels name (fun () -> Gauge (ref 0.)) with
  | Gauge g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered with another type")

let set_gauge g v = g := v
let add_gauge g v = g := !g +. v

let histogram ?labels name : histogram =
  let make () =
    Histogram
      {
        h_count = 0;
        h_sum = 0.;
        h_min = infinity;
        h_max = neg_infinity;
        h_ring = Array.make reservoir_size 0.;
        h_ring_len = 0;
        h_ring_next = 0;
      }
  in
  match cell ?labels name make with
  | Histogram h -> h
  | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " registered with another type")

let observe h v =
  locked (fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      h.h_ring.(h.h_ring_next) <- v;
      h.h_ring_next <- (h.h_ring_next + 1) mod reservoir_size;
      if h.h_ring_len < reservoir_size then h.h_ring_len <- h.h_ring_len + 1)

let histogram_count h = h.h_count
let histogram_sum h = locked (fun () -> h.h_sum)

let percentile_locked h p =
  if h.h_ring_len = 0 then 0.
  else begin
    let a = Array.sub h.h_ring 0 h.h_ring_len in
    Array.sort compare a;
    let p = if p < 0. then 0. else if p > 1. then 1. else p in
    a.(min (h.h_ring_len - 1) (int_of_float (float_of_int h.h_ring_len *. p)))
  end

let percentile h p = locked (fun () -> percentile_locked h p)

(* One consistent view of a histogram: count/sum/mean/min/max and both
   reported quantiles are taken under the same lock acquisition, so a
   snapshot can never pair a new count with an old sum. *)
type hist_view = {
  hv_count : int;
  hv_sum : float;
  hv_mean : float;
  hv_min : float;
  hv_max : float;
  hv_p50 : float;
  hv_p99 : float;
}

let hist_view h =
  locked (fun () ->
      let mean = if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count in
      {
        hv_count = h.h_count;
        hv_sum = h.h_sum;
        hv_mean = mean;
        hv_min = (if h.h_count = 0 then 0. else h.h_min);
        hv_max = (if h.h_count = 0 then 0. else h.h_max);
        hv_p50 = percentile_locked h 0.5;
        hv_p99 = percentile_locked h 0.99;
      })

let register_source ~name ~snapshot ~reset =
  match Hashtbl.find_opt sources name with
  | Some (Cells _) -> invalid_arg ("Metrics.register_source: " ^ name ^ " holds cells")
  | _ -> Hashtbl.replace sources name (Computed { snapshot; reset })

let unregister_source name = Hashtbl.remove sources name

(* [Gc.quick_stat]'s running totals count from the last reset: words
   allocated in the minor heap, promoted, and allocated in the major
   heap (promotions included), and collections of each heap *)
let gc_totals s =
  [
    ("minor_words", int_of_float s.Gc.minor_words);
    ("promoted_words", int_of_float s.Gc.promoted_words);
    ("major_words", int_of_float s.Gc.major_words);
    ("minor_collections", s.Gc.minor_collections);
    ("major_collections", s.Gc.major_collections);
  ]

let register_gc () =
  let base = ref (List.map (fun (k, _) -> (k, 0)) (gc_totals (Gc.quick_stat ()))) in
  register_source ~name:"gc"
    ~snapshot:(fun () ->
      let s = Gc.quick_stat () in
      List.map2 (fun (k, v) (_, b) -> (k, I (v - b))) (gc_totals s) !base
      @ [ ("heap_words", I s.Gc.heap_words); ("top_heap_words", I s.Gc.top_heap_words) ])
    ~reset:(fun () -> base := gc_totals (Gc.quick_stat ()))

let zero = function
  | Counter c -> c := 0
  | Gauge g -> g := 0.
  | Histogram h ->
    locked (fun () ->
        h.h_count <- 0;
        h.h_sum <- 0.;
        h.h_min <- infinity;
        h.h_max <- neg_infinity;
        h.h_ring_len <- 0;
        h.h_ring_next <- 0)

let sorted_metrics () =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [])

let sorted_sources () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sources [])

let reset_all () =
  Hashtbl.iter (fun _ m -> zero m) registry;
  List.iter
    (function
      | _, Cells cells -> List.iter (fun (_, m) -> zero m) !cells
      | _, Computed c -> c.reset ())
    (sorted_sources ())

(* a source's values: its cells' (histograms belong to no source) or
   what it computes now *)
let source_values = function
  | Cells cells ->
    List.map
      (function
        | k, Counter c -> (k, I !c)
        | k, Gauge g -> (k, F !g)
        | k, Histogram h -> (k, I h.h_count))
      !cells
  | Computed c -> c.snapshot ()

(* JSON snapshot *)

let add_num buf = function
  | I n -> Buffer.add_string buf (string_of_int n)
  | F f -> Json.add_float buf f

let add_kv_list buf kvs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      add_num buf v)
    kvs;
  Buffer.add_char buf '}'

let snapshot_json () =
  let buf = Buffer.create 1024 in
  let metrics = sorted_metrics () in
  let section tag f =
    Json.add_string buf tag;
    Buffer.add_char buf ':';
    f ()
  in
  Buffer.add_char buf '{';
  section "counters" (fun () ->
      add_kv_list buf
        (List.filter_map (function k, Counter c -> Some (k, I !c) | _ -> None) metrics));
  Buffer.add_char buf ',';
  section "gauges" (fun () ->
      add_kv_list buf (List.filter_map (function k, Gauge g -> Some (k, F !g) | _ -> None) metrics));
  Buffer.add_char buf ',';
  section "histograms" (fun () ->
      Buffer.add_char buf '{';
      let first = ref true in
      List.iter
        (function
          | k, Histogram h ->
            if !first then first := false else Buffer.add_char buf ',';
            Json.add_string buf k;
            Buffer.add_char buf ':';
            let v = hist_view h in
            add_kv_list buf
              [
                ("count", I v.hv_count);
                ("sum", F v.hv_sum);
                ("mean", F v.hv_mean);
                ("min", F v.hv_min);
                ("max", F v.hv_max);
                ("p50", F v.hv_p50);
                ("p99", F v.hv_p99);
              ]
          | _ -> ())
        metrics;
      Buffer.add_char buf '}');
  Buffer.add_char buf ',';
  section "sources" (fun () ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, src) ->
          if i > 0 then Buffer.add_char buf ',';
          Json.add_string buf name;
          Buffer.add_char buf ':';
          add_kv_list buf (source_values src))
        (sorted_sources ());
      Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Human-readable merged report *)

let pp_num ppf = function
  | I n -> Format.fprintf ppf "%d" n
  | F f -> if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.0f" f else Format.fprintf ppf "%.4g" f

let pp_report ppf () =
  let metrics = sorted_metrics () in
  let counters = List.filter_map (function k, Counter c -> Some (k, I !c) | _ -> None) metrics in
  let gauges = List.filter_map (function k, Gauge g -> Some (k, F !g) | _ -> None) metrics in
  let histos = List.filter_map (function k, Histogram h -> Some (k, h) | _ -> None) metrics in
  Format.fprintf ppf "== metrics ==@.";
  if counters <> [] || gauges <> [] then begin
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %a@." k pp_num v) counters;
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %a@." k pp_num v) gauges
  end;
  List.iter
    (fun (k, h) ->
      let v = hist_view h in
      if v.hv_count = 0 then Format.fprintf ppf "  %-32s count 0@." k
      else
        Format.fprintf ppf
          "  %-32s count %d  mean %.4g  min %.4g  max %.4g  p50 %.4g  p99 %.4g@." k
          v.hv_count v.hv_mean v.hv_min v.hv_max v.hv_p50 v.hv_p99)
    histos;
  List.iter
    (fun (name, src) ->
      Format.fprintf ppf "-- %s --@." name;
      List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %a@." k pp_num v) (source_values src))
    (sorted_sources ())

(* Prometheus text exposition (version 0.0.4).  Registry keys carry
   labels inline ([name{k=v,...}]); split them back apart, sanitize the
   metric name to the [a-zA-Z0-9_:] alphabet, and render histograms as
   summaries with the two quantiles the reservoir supports. *)

let prom_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    s

let prom_split key =
  match String.index_opt key '{' with
  | None -> (prom_name key, [])
  | Some i ->
    let name = String.sub key 0 i in
    let rest = String.sub key (i + 1) (String.length key - i - 2) in
    let labels =
      List.filter_map
        (fun pair ->
          match String.index_opt pair '=' with
          | None -> None
          | Some j ->
            Some
              ( String.sub pair 0 j,
                String.sub pair (j + 1) (String.length pair - j - 1) ))
        (String.split_on_char ',' rest)
    in
    (prom_name name, labels)

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" (prom_name k) v) labels)
    ^ "}"

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus () =
  let buf = Buffer.create 2048 in
  let typed = Hashtbl.create 32 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (key, m) ->
      let name, labels = prom_split key in
      let l = prom_labels labels in
      match m with
      | Counter c ->
        type_line name "counter";
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name l !c)
      | Gauge g ->
        type_line name "gauge";
        Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name l (prom_float !g))
      | Histogram h ->
        let v = hist_view h in
        type_line name "summary";
        let quantile q value =
          let ql = ("quantile", q) :: labels in
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (prom_labels ql) (prom_float value))
        in
        quantile "0.5" v.hv_p50;
        quantile "0.99" v.hv_p99;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" name l (prom_float v.hv_sum));
        Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name l v.hv_count))
    (sorted_metrics ());
  List.iter
    (fun (src_name, src) ->
      List.iter
        (fun (k, v) ->
          let name = prom_name (src_name ^ "_" ^ k) in
          type_line name "gauge";
          let value = match v with I n -> string_of_int n | F f -> prom_float f in
          Buffer.add_string buf (Printf.sprintf "%s %s\n" name value))
        (source_values src))
    (sorted_sources ());
  Buffer.contents buf
