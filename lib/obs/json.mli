(** Minimal JSON string rendering shared by the trace sinks, the
    metrics registry, the slow-query log and the tools (the
    observability library has no dependencies). *)

(** [add_string buf s] appends [s] as a quoted JSON string. *)
val add_string : Buffer.t -> string -> unit

(** [quote s] is [s] as a quoted JSON string. *)
val quote : string -> string

(** [add_float buf f] appends [f] as a JSON number. *)
val add_float : Buffer.t -> float -> unit
