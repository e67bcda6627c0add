(** Instrumentation counters for the durable object store: one record
    shared by the log layer ({!Log_store}: commits, bytes, recovery
    truncations) and the object layer ([Tml_vm.Pstore]: faults).  Served
    through the metrics registry as the ["store"] source, which
    [tmlsh :stats] prints. *)

type t = {
  mutable commits : int;  (** sealed transactions *)
  mutable records_written : int;  (** object records appended *)
  mutable bytes_written : int;  (** total bytes appended (incl. seals) *)
  mutable faults : int;  (** objects decoded on demand from the log *)
  mutable recovery_truncations : int;  (** torn tails cut off on open *)
  mutable truncated_bytes : int;  (** bytes discarded by those cuts *)
  mutable compactions : int;
}

val create : unit -> t

val register_metrics : ?name:string -> t -> unit
(** expose [t] as a source (default name ["store"]) in the
    [Tml_obs.Metrics] registry, one counter per field in declaration
    order; a registry reset zeroes them.  Registering again replaces the
    previous source of the same name *)
