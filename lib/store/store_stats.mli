(** Instrumentation counters for the durable object store: one record
    shared by the log layer ({!Log_store}: commits, bytes, recovery
    truncations) and the object layer ([Tml_vm.Pstore]: faults, cache
    hits/misses).  Printable from [tmlsh] ([:stats]) and emitted by the
    store benchmark. *)

type t = {
  mutable commits : int;  (** sealed transactions *)
  mutable records_written : int;  (** object records appended *)
  mutable bytes_written : int;  (** total bytes appended (incl. seals) *)
  mutable faults : int;  (** objects decoded on demand from the log *)
  mutable cache_hits : int;  (** accesses served by a materialized object *)
  mutable cache_misses : int;  (** accesses that had to fault *)
  mutable recovery_truncations : int;  (** torn tails cut off on open *)
  mutable truncated_bytes : int;  (** bytes discarded by those cuts *)
  mutable compactions : int;
}

val create : unit -> t
val reset : t -> unit

val hit_rate : t -> float
(** [cache_hits / (cache_hits + cache_misses)], 0 when idle. *)

val fields : t -> (string * int) list
(** counters in declaration order, as [(name, value)] pairs *)

val register_metrics : ?name:string -> t -> unit
(** expose [t] as a source (default name ["store"]) in the
    [Tml_obs.Metrics] registry; registering again replaces the previous
    source of the same name *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_json : t -> string
(** one-line JSON object, for the benchmark harness *)
