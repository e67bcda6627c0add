(** The slow-query log: a bounded ring of the most recent requests that
    exceeded a latency threshold, durable across restarts.

    Each entry captures everything needed to explain one slow request
    after the fact: its trace id (so the entry can be joined with the
    request's spans in a Chrome trace), the work the VM did (abstract
    steps, execution tier), the store work (page faults), the query work
    (index probes) and — following the plan-visibility tradition of
    query IRs — the {e names of the plan rules that fired} for the
    functions the request touched, read back from their persistent
    provenance logs.  The ring itself persists as a versioned store
    object in a sidecar file next to the server's log store ([SLG1]
    records; atomic rewrite), so [tmld --slow-ms] reports slow queries
    from before the last restart too. *)

type entry = {
  sl_trace : int;  (** request trace id; [0] when the client sent none *)
  sl_kind : string;  (** ["eval"], ["pull"], ... *)
  sl_source : string;  (** the request's TL source (truncated), or a description *)
  sl_duration_s : float;
  sl_steps : int;  (** abstract VM instructions charged to the request *)
  sl_tier : string;  (** ["machine"] or ["tiered"] *)
  sl_page_faults : int;  (** relation pages faulted from the store *)
  sl_index_probes : int;
  sl_rules : string list;  (** plan rules that fired, in derivation order *)
  sl_facts : string list;  (** the enabling provenance facts of those rules *)
}

type t

val create : ?limit:int -> unit -> t
(** an empty ring; [limit] (default 128) bounds retained entries *)

val add : t -> entry -> unit
(** append, evicting the oldest entry when full *)

val entries : t -> entry list
(** oldest first *)

val length : t -> int

val limit : t -> int

val dropped : t -> int
(** entries evicted by the bound since creation (or load) *)

val clear : t -> unit

(** {1 Persistence}

    The encoding is self-contained (magic ["SLG1"], varint-framed) so
    the ring can live as a store object or a sidecar file. *)

exception Corrupt of string

val encode : t -> string

val decode : ?limit:int -> string -> t
(** @raise Corrupt on a damaged or foreign payload *)

val save : t -> string -> unit
(** atomic write (temp file + rename) *)

val load : ?limit:int -> string -> t
(** a missing or corrupt file yields an empty ring — losing the slow
    log must never cost the server *)

(** {1 Rendering} *)

val to_json : t -> string
(** [{"limit":N,"dropped":N,"entries":[...]}], oldest first *)

val pp : Format.formatter -> t -> unit
(** human-readable table, newest first *)
