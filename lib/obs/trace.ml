(* Structured tracing core.

   A trace is a stream of timestamped events.  Spans are Chrome-style
   B/E (begin/end) pairs on one logical thread; instants and counters
   carry a point-in-time payload.  Everything is gated on [enabled]:
   when tracing is off the fast path is a single ref read, so
   instrumentation can stay in hot code (optimizer passes, VM runs,
   store commits) without measurable cost.

   Events fan out to pluggable sinks.  Three are provided: an in-memory
   ring (for `tmlsh :trace dump` and tests), a JSONL stream, and a
   Chrome trace_event stream loadable in Perfetto / chrome://tracing. *)

type arg = Int of int | Str of string | Float of float | Bool of bool

type phase = B | E | I | C

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float; (* microseconds since clock epoch *)
  ev_args : (string * arg) list;
  ev_tid : int;
}

let enabled = ref false

(* Logical thread of the emitting code.  Defaults to a single thread so
   CLI traces stay flat; the server installs [Thread.id (Thread.self)]
   so each connection's spans nest on their own Perfetto track instead
   of garbling each other's B/E pairing. *)
let tid_source : (unit -> int) ref = ref (fun () -> 1)

(* Single clock for the whole system: trace timestamps, [Profile] pass
   timings, server phase timers and bench measurements all read this
   ref.  Tests install a fake clock to make durations deterministic. *)
let clock : (unit -> float) ref = ref Unix.gettimeofday

let now_us () = !clock () *. 1e6

(* Sinks *)

type sink = { sk_emit : event -> unit; sk_close : unit -> unit }

let sinks : (int * sink) list ref = ref []
let next_id = ref 0

let add_sink sk =
  incr next_id;
  sinks := !sinks @ [ (!next_id, sk) ];
  !next_id

let remove_sink id =
  (match List.assoc_opt id !sinks with Some sk -> sk.sk_close () | None -> ());
  sinks := List.filter (fun (i, _) -> i <> id) !sinks

let clear_sinks () =
  List.iter (fun (_, sk) -> sk.sk_close ()) !sinks;
  sinks := []

let dispatch ev = List.iter (fun (_, sk) -> sk.sk_emit ev) !sinks

(* Emission *)

let event ?(args = []) ~cat ~ph name =
  if !enabled then
    dispatch
      { ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts = now_us (); ev_args = args;
        ev_tid = !tid_source () }

let instant ?args ~cat name = event ?args ~cat ~ph:I name
let counter ?args ~cat name = event ?args ~cat ~ph:C name

let with_span ?(args = []) ~cat name f =
  if not !enabled then f ()
  else begin
    let tid = !tid_source () in
    dispatch
      { ev_name = name; ev_cat = cat; ev_ph = B; ev_ts = now_us (); ev_args = args;
        ev_tid = tid };
    let finish () =
      dispatch
        { ev_name = name; ev_cat = cat; ev_ph = E; ev_ts = now_us (); ev_args = [];
          ev_tid = tid }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Rendering *)

let phase_letter = function B -> "B" | E -> "E" | I -> "i" | C -> "C"

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      match v with
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Str s -> Json.add_string buf s
      | Float f -> Json.add_float buf f
      | Bool b -> Buffer.add_string buf (if b then "true" else "false"))
    args;
  Buffer.add_char buf '}'

let add_event buf ev =
  Buffer.add_string buf "{\"name\":";
  Json.add_string buf ev.ev_name;
  Buffer.add_string buf ",\"cat\":";
  Json.add_string buf ev.ev_cat;
  Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\"" (phase_letter ev.ev_ph));
  Buffer.add_string buf (Printf.sprintf ",\"ts\":%.3f" ev.ev_ts);
  Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" ev.ev_tid);
  if ev.ev_args <> [] then begin
    Buffer.add_string buf ",\"args\":";
    add_args buf ev.ev_args
  end;
  Buffer.add_char buf '}'

let event_to_json ev =
  let buf = Buffer.create 128 in
  add_event buf ev;
  Buffer.contents buf

let chrome_of_events evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf ev)
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let jsonl_of_events evs = String.concat "" (List.map (fun ev -> event_to_json ev ^ "\n") evs)

(* Built-in sinks *)

let memory_sink ?(limit = 262144) () =
  let q = Queue.create () in
  (* Wrapping used to overwrite silently; losing spans without a signal
     makes a truncated trace look complete.  Count every eviction. *)
  let dropped = Metrics.counter "trace.dropped_spans" in
  let emit ev =
    if Queue.length q >= limit then begin
      ignore (Queue.pop q);
      Metrics.inc dropped
    end;
    Queue.push ev q
  in
  ({ sk_emit = emit; sk_close = ignore }, fun () -> List.of_seq (Queue.to_seq q))

(* Concurrent sessions emit into one file: each event, with its newline
   or separator, is rendered first and then written in one call under the
   sink's lock, so two events can never share or split a line. *)
let jsonl_sink oc =
  let m = Mutex.create () in
  {
    sk_emit =
      (fun ev ->
        let line = event_to_json ev ^ "\n" in
        Mutex.protect m (fun () -> output_string oc line));
    sk_close = (fun () -> flush oc);
  }

let chrome_sink oc =
  let m = Mutex.create () in
  let first = ref true in
  output_string oc "{\"traceEvents\":[";
  {
    sk_emit =
      (fun ev ->
        let json = event_to_json ev in
        Mutex.protect m (fun () ->
            output_string oc (if !first then (first := false; json) else ",\n" ^ json)));
    sk_close =
      (fun () ->
        output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
        flush oc);
  }
