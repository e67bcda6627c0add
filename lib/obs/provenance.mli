(** Optimization provenance: the compact derivation log an optimizer
    run records (rule, site, enabling analysis fact, local size/cost
    deltas).  Logs are deterministic for a given pre-term and optimizer
    configuration; [Optimizer.replay] re-derives the optimized term
    from a pre-term and checks the log reproduces.  Persisted next to
    PTML in the durable image (see [Prov_codec] in [tml_store]) so
    [tmlc --explain] and [tmlsh :explain] work across reopens. *)

type entry = {
  pv_rule : string;  (** rule name, e.g. ["beta"], ["q.merge-select"], ["expand"] *)
  pv_site : string;  (** stamp-free rendering of the redex head *)
  pv_fact : string;  (** enabling analysis fact; [""] when none *)
  pv_size_delta : int;  (** term-size delta of the rewritten subtree *)
  pv_cost_delta : int;  (** static-cost delta of the rewritten subtree *)
}

type t = entry list

(** Master switch for recording (off by default: recording allocates). *)
val enabled : bool ref

(** {1 Accumulation} *)

type buf

val create : unit -> buf
val add : buf -> entry -> unit
val contents : buf -> t
val length : buf -> int

(** {1 Inspection} *)

val equal : t -> t -> bool

(** e.g. ["12 steps, size -20, cost -34"]. *)
val summary : t -> string

(** Numbered human-readable derivation log. *)
val pp : Format.formatter -> t -> unit
