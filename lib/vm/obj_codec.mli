(** Per-object binary encoding shared by the heap image ([Image]) and the
    durable log store ([Pstore]).

    One encoded object is self-contained: inter-object references stay
    symbolic ([Oidv]), a relation's indexes are sibling [Index] objects
    (a legacy relation persisted only the list of indexed field
    positions, and its indexes are rebuilt on load), and functions
    round-trip through their PTML form.  Live closures have no persistent form and
    are rejected. *)

exception Codec_error of string

(** {1 Streaming interface}

    Used by [Image], which packs many objects into one byte stream. *)

val w_value : Tml_store.Codec.W.t -> Value.t -> unit
val w_obj : Tml_store.Codec.W.t -> Value.obj -> unit

val r_obj : Tml_store.Codec.R.t -> Value.obj * int list
(** Returns the object and, for relations, the indexed field positions
    (callers rebuild the indexes once every referenced row is loadable;
    see {!rebuild_relation_indexes}). *)

(** {1 Whole-object interface}

    Used by the log store, where each record holds exactly one object. *)

val encode_obj : Value.obj -> string
(** @raise Codec_error on a live closure value *)

val decode_obj : string -> Value.obj * int list
(** Inverse of {!encode_obj}; rejects trailing bytes.
    @raise Codec_error on any malformed input *)

val rebuild_relation_indexes : Value.Heap.heap -> Tml_core.Oid.t -> int list -> unit
(** [rebuild_relation_indexes heap oid fields] recomputes the index
    on each of [fields] for the relation at [oid], dereferencing its rows
    through the heap (which may fault them in from a backing store).
    @raise Codec_error if [oid] is not a relation or a row is invalid *)
