(** Structured tracing core: nestable spans and typed instants emitted
    to pluggable sinks, cheap (one ref read) when disabled.

    The event model follows the Chrome [trace_event] format so dumps
    load directly in Perfetto / [chrome://tracing]: [B]/[E] bracket a
    duration span, [I] is an instant, [C] a counter sample.  See
    docs/OBS.md for the event schema used across the system. *)

type arg = Int of int | Str of string | Float of float | Bool of bool

type phase = B  (** span begin *) | E  (** span end *) | I  (** instant *) | C  (** counter *)

type event = {
  ev_name : string;
  ev_cat : string;  (** category, e.g. ["optimizer"], ["speccache"], ["store"], ["vm"] *)
  ev_ph : phase;
  ev_ts : float;  (** microseconds since the clock's epoch *)
  ev_args : (string * arg) list;
  ev_tid : int;  (** logical thread, from {!tid_source} at emission *)
}

(** Master switch.  All emission helpers are no-ops while [false]. *)
val enabled : bool ref

(** Logical thread id stamped on emitted events (Chrome [tid]).
    Defaults to [fun () -> 1]; multi-threaded hosts (the server)
    install [Thread.id (Thread.self ())] so concurrent spans land on
    separate tracks instead of garbling one track's B/E nesting. *)
val tid_source : (unit -> int) ref

(** The single clock (seconds, as a float) shared by tracing,
    {!Profile} pass timings, the server's phase timers and bench.
    Defaults to [Unix.gettimeofday]; tests may install a fake one. *)
val clock : (unit -> float) ref

(** Current time in microseconds, per {!clock}. *)
val now_us : unit -> float

(** {1 Sinks} *)

type sink = { sk_emit : event -> unit; sk_close : unit -> unit }

(** [add_sink sk] registers a sink and returns an id for {!remove_sink}. *)
val add_sink : sink -> int

(** [remove_sink id] closes and unregisters the sink. *)
val remove_sink : int -> unit

(** Close and drop every registered sink. *)
val clear_sinks : unit -> unit

(** Sink that discards events (for overhead measurement). *)
val null_sink : unit -> sink

(** Bounded in-memory ring; returns the sink and a function producing
    the buffered events oldest-first.  [limit] defaults to 262144. *)
val memory_sink : ?limit:int -> unit -> sink * (unit -> event list)

(** One JSON object per line on the given channel. *)
val jsonl_sink : out_channel -> sink

(** Streaming Chrome [trace_event] JSON; the closing bracket is written
    by [sk_close]. *)
val chrome_sink : out_channel -> sink

(** {1 Emission} *)

(** Low-level: emit a single event if {!enabled}. *)
val event : ?args:(string * arg) list -> cat:string -> ph:phase -> string -> unit

(** Instant event ([ph = I]). *)
val instant : ?args:(string * arg) list -> cat:string -> string -> unit

(** Counter sample ([ph = C]). *)
val counter : ?args:(string * arg) list -> cat:string -> string -> unit

(** [with_span ~cat name f] brackets [f] with [B]/[E] events (also on
    exception).  When disabled this is just [f ()]. *)
val with_span : ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a

(** {1 Rendering} *)

(** One event as a Chrome-format JSON object (no trailing newline). *)
val event_to_json : event -> string

(** Full Chrome trace document: [{"traceEvents":[...],...}]. *)
val chrome_of_events : event list -> string

(** Newline-separated JSON objects. *)
val jsonl_of_events : event list -> string
