(** Relations in the persistent store.

    A relation is a store object holding an ordered multiset of rows; each
    row is a [Tuple] store object referenced by OID (rows therefore have
    object identity, as the ["=="] primitive expects).  Rows are stored in
    sealed pages — sibling [Vector] store objects faulted on demand — so a
    relation of millions of rows never materializes its row array (see
    {!Tml_vm.Relcore}).

    Relations carry persistent secondary indexes, each a sibling
    [Index] store object (keys in order, so a commit encodes it without
    sorting) maintained incrementally by {!insert} and
    committed/recovered with the relation, plus a small [Stats] object with
    cardinality statistics.  Whether an index exists — and how selective it
    is — is a {e runtime} binding: precisely the information the paper says
    forces query optimization to be delayed until runtime (section 4.2). *)

open Tml_vm

(** [create ctx ~name rows] allocates a relation whose rows are the given
    tuples (each given as a value array; tuple objects are allocated).
    Base relations carry a stats object from birth. *)
val create : Runtime.ctx -> name:string -> Value.t array list -> Tml_core.Oid.t

(** [get ctx oid] dereferences a relation.  @raise Runtime.Fault *)
val get : Runtime.ctx -> Tml_core.Oid.t -> Value.relation

(** [row_tuple ctx row] dereferences a row to its field array. *)
val row_tuple : Runtime.ctx -> Value.t -> Value.t array

(** {1 Paged row access}

    These iterate the sealed pages directly, faulting each page at most
    once per traversal; none of them materializes the full row array. *)

val length : Runtime.ctx -> Tml_core.Oid.t -> int
val nth : Runtime.ctx -> Tml_core.Oid.t -> int -> Value.t
val iteri : Runtime.ctx -> Tml_core.Oid.t -> (int -> Value.t -> unit) -> unit
val fold : Runtime.ctx -> Tml_core.Oid.t -> 'a -> ('a -> int -> Value.t -> 'a) -> 'a

(** [find ctx rel f] — position of the first row satisfying [f], scanning
    in order with early exit (pages past the hit are not faulted). *)
val find : Runtime.ctx -> Tml_core.Oid.t -> (int -> Value.t -> bool) -> int option

(** [rows ctx rel] materializes the logical row array (memoized on the
    header, invalidated by insert).  Positional compatibility for tests
    and [[]]-style access — the query primitives use {!iteri} instead. *)
val rows : Runtime.ctx -> Tml_core.Oid.t -> Value.t array

(** {1 Mutation} *)

(** [insert ctx rel fields] appends a fresh tuple, updating every
    persistent index and the stats object incrementally. *)
val insert : Runtime.ctx -> Tml_core.Oid.t -> Value.t array -> unit

(** [add_index ctx rel field] builds (or rebuilds) a persistent index
    on a field position, stored as a sibling [Index] store object. *)
val add_index : Runtime.ctx -> Tml_core.Oid.t -> int -> unit

(** [add_trigger ctx rel fn] registers a stored trigger procedure. *)
val add_trigger : Runtime.ctx -> Tml_core.Oid.t -> Value.t -> unit

(** [triggers ctx rel] — stored triggers in registration order. *)
val triggers : Runtime.ctx -> Tml_core.Oid.t -> Value.t list

(** {1 Indexes}

    The index representation is abstract: callers probe through the
    handle, so the underlying structure can evolve without touching
    them. *)

type index

(** [find_index ctx rel field] — the runtime binding the [index-select]
    and [index-join] rewrites consult.  Faults the persistent index
    object in from the store if needed ({e without} rebuilding it). *)
val find_index : Runtime.ctx -> Tml_core.Oid.t -> int -> index option

val index_field : index -> int

(** [index_positions ctx ix key] — positions of rows whose indexed
    field equals [key], ascending.  A paged index faults the one leaf
    that holds [key]. *)
val index_positions : Runtime.ctx -> index -> Tml_core.Literal.t -> int list

(** [index_distinct ctx ix] — number of distinct keys in the index,
    counted over every leaf (the stats object keeps the same count, see
    {!distinct}). *)
val index_distinct : Runtime.ctx -> index -> int

(** [indexed_fields ctx rel] — fields with an index, ascending. *)
val indexed_fields : Runtime.ctx -> Tml_core.Oid.t -> int list

(** [lookup ctx rel ~field key] — indexed lookup (positions of matching
    rows, ascending), or [None] if no index exists. *)
val lookup :
  Runtime.ctx -> Tml_core.Oid.t -> field:int -> Tml_core.Literal.t -> int list option

(** {1 Statistics} *)

(** [stats ctx rel] — the relation's cardinality statistics, if it has a
    stats object (base relations always do; query intermediates gain one
    on their first insert or [mkindex]). *)
val stats : Runtime.ctx -> Tml_core.Oid.t -> Value.stats_obj option

(** [distinct ctx rel field] — distinct-key count for an indexed field,
    from the stats object. *)
val distinct : Runtime.ctx -> Tml_core.Oid.t -> int -> int option

(** [of_rows ctx ~name row_oids] builds a relation from existing row OIDs
    (used by [select] which preserves row identity). *)
val of_rows : Runtime.ctx -> name:string -> Value.t array -> Tml_core.Oid.t

(** {1 Counters} — cells of the registry's ["query"] source *)

val relations_created : Tml_obs.Metrics.counter
val inserts : Tml_obs.Metrics.counter
val index_builds : Tml_obs.Metrics.counter
val index_loads : Tml_obs.Metrics.counter
val index_probes : Tml_obs.Metrics.counter
val stats_updates : Tml_obs.Metrics.counter
