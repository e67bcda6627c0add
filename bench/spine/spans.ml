(* Spans rebuilt from Chrome-format trace events (the bench's memory
   sink and tmld's --trace-jsonl stream share one encoding), self times,
   and the per-layer decomposition of a traced request.

   A layer's self time is its span's duration minus the part of that
   interval its child spans cover; children may live on other threads
   (a commit's fsync group runs on the committer), so coverage is
   measured on the union of their intervals clipped to the parent. *)

type span = {
  id : int;
  parent : int;  (* enclosing open span on the same track; -1 at top level *)
  name : string;
  track : int * int;  (* pid, tid *)
  t0 : float;  (* microseconds *)
  t1 : float;
  args : (string * Sjson.t) list;
}

type instant = { i_name : string; i_args : (string * Sjson.t) list }

(* The bench's span sink: the library's bounded memory ring (evictions
   counted as trace.dropped_spans), serialized because both load
   threads emit into it. *)
let bench_sink () =
  let sk, dump = Tml_obs.Trace.memory_sink () in
  let m = Mutex.create () in
  ({ sk with Tml_obs.Trace.sk_emit = (fun ev -> Mutex.protect m (fun () -> sk.Tml_obs.Trace.sk_emit ev)) }, dump)

(* [capture on f] runs [f]; when [on], with tracing enabled into the
   bench sink, returning the recorded events as Chrome JSON objects *)
let capture on f =
  if not on then (f (), [])
  else begin
    let sk, dump = bench_sink () in
    let id = Tml_obs.Trace.add_sink sk in
    Tml_obs.Trace.enabled := true;
    let r = Fun.protect ~finally:(fun () -> Tml_obs.Trace.enabled := false) f in
    let evs = dump () in
    Tml_obs.Trace.remove_sink id;
    (r, List.map (fun ev -> Sjson.parse (Tml_obs.Trace.event_to_json ev)) evs)
  end

let dropped () =
  float_of_int (Tml_obs.Metrics.counter_value (Tml_obs.Metrics.counter "trace.dropped_spans"))

(* one Chrome document's events: the bench as process 1, tmld as 2 *)
let chrome ~bench ~server =
  let with_pid pid = function
    | Sjson.Obj kvs -> Sjson.Obj (("pid", Sjson.Num pid) :: List.remove_assoc "pid" kvs)
    | v -> v
  in
  List.map (with_pid 1.) bench @ List.map (with_pid 2.) server

let dur s = s.t1 -. s.t0
let arg_int k args = match List.assoc_opt k args with Some v -> Sjson.to_int v | None -> 0

(* Pair B/E events per track; E args (if any) are merged into the span.
   An E whose B was never seen (a ring that dropped it) is ignored, and
   spans still open at the end are dropped. *)
let of_events (evs : Sjson.t list) =
  let stacks = Hashtbl.create 16 in
  let spans = ref [] and instants = ref [] in
  let next = ref 0 in
  List.iter
    (fun ev ->
      let name = Sjson.(to_string (member "name" ev)) in
      let ts = Sjson.(to_float (member "ts" ev)) in
      let track = (Sjson.(to_int (member "pid" ev)), Sjson.(to_int (member "tid" ev))) in
      let args = Sjson.(to_assoc (member "args" ev)) in
      let stack = try Hashtbl.find stacks track with Not_found -> [] in
      match Sjson.(to_string (member "ph" ev)) with
      | "B" ->
        incr next;
        Hashtbl.replace stacks track ((!next, name, ts, args) :: stack)
      | "E" -> (
        match stack with
        | (id, bname, t0, bargs) :: rest when bname = name ->
          Hashtbl.replace stacks track rest;
          let parent = match rest with (p, _, _, _) :: _ -> p | [] -> -1 in
          spans := { id; parent; name; track; t0; t1 = ts; args = bargs @ args } :: !spans
        | _ -> ())
      | "i" | "I" -> instants := { i_name = name; i_args = args } :: !instants
      | _ -> ())
    evs;
  (List.rev !spans, List.rev !instants)

(* measure of the union of [intervals] clipped to [lo, hi] *)
let covered (lo, hi) intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_time sp children = dur sp -. covered (sp.t0, sp.t1) (List.map (fun c -> (c.t0, c.t1)) children)

(* --- request decomposition ------------------------------------------ *)

(* Per-op layer times in microseconds.  The layers partition a request's
   client-observed time: wire (client round trip outside the server's
   request span), the handler's own time, eval-lock wait and hold, and
   for a commit the submit wait, the group's own work and its fsync. *)
type layers = {
  total : float;
  wire : float;
  handler_self : float;
  lock_wait : float;
  lock_hold : float;
  commit_submit : float;
  commit_group : float;
  fsync : float;
}

let zero =
  { total = 0.; wire = 0.; handler_self = 0.; lock_wait = 0.; lock_hold = 0.;
    commit_submit = 0.; commit_group = 0.; fsync = 0. }

let layer_sum l =
  l.wire +. l.handler_self +. l.lock_wait +. l.lock_hold +. l.commit_submit +. l.commit_group
  +. l.fsync

(* [decompose ~ops ~bench ~server ~instants] joins each bench op span
   (a span in [ops]) to its [client.request] children, each of those to
   the tmld request span carrying the same trace id, and each commit to
   its fsync group through the [commit.sealed] instant. *)
let decompose ~ops ~bench ~server ~instants =
  let children_of spans =
    let tbl = Hashtbl.create 256 in
    List.iter (fun s -> Hashtbl.add tbl (s.track, s.parent) s) spans;
    fun s -> Hashtbl.find_all tbl (s.track, s.id)
  in
  let bench_children = children_of bench and server_children = children_of server in
  let by_trace = Hashtbl.create 256 and by_group = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if String.length s.name > 7 && String.sub s.name 0 7 = "server." then
        Hashtbl.replace by_trace (arg_int "trace" s.args) s
      else if s.name = "commit.group" || s.name = "commit.fsync" then
        Hashtbl.add by_group (s.name, arg_int "group" s.args) s)
    server;
  let group_of = Hashtbl.create 64 in
  List.iter
    (fun i ->
      if i.i_name = "commit.sealed" then
        Hashtbl.replace group_of (arg_int "trace" i.i_args) (arg_int "group" i.i_args))
    instants;
  let request l c =
    let trace = arg_int "trace" c.args in
    match Hashtbl.find_opt by_trace trace with
    | None -> { l with wire = l.wire +. dur c }
    | Some s ->
      let kids = server_children s in
      let sum name = List.fold_left (fun a k -> if k.name = name then a +. dur k else a) 0. kids in
      let l =
        { l with
          wire = l.wire +. (dur c -. dur s);
          handler_self = l.handler_self +. self_time s kids;
          lock_wait = l.lock_wait +. sum "eval_lock.wait";
          lock_hold = l.lock_hold +. sum "eval_lock.hold" }
      in
      List.fold_left
        (fun l u ->
          if u.name <> "commit.submit" then l
          else
            let group =
              match Hashtbl.find_opt group_of trace with
              | None -> None
              | Some gid -> Hashtbl.find_opt by_group ("commit.group", gid)
            in
            match group with
            | None -> { l with commit_submit = l.commit_submit +. dur u }
            | Some g ->
              let fsyncs = Hashtbl.find_all by_group ("commit.fsync", arg_int "group" g.args) in
              { l with
                commit_submit = l.commit_submit +. self_time u [ g ];
                commit_group = l.commit_group +. self_time g fsyncs;
                fsync = l.fsync +. List.fold_left (fun a f -> a +. dur f) 0. fsyncs })
        l kids
  in
  List.filter_map
    (fun o ->
      if not (List.mem o.name ops) then None
      else
        let clients = List.filter (fun c -> c.name = "client.request") (bench_children o) in
        Some (o, List.fold_left request { zero with total = dur o } clients))
    bench
