(** Runtime values and the persistent object store heap.

    Simple values (integers, characters, booleans, reals, strings, unit) are
    immediate; complex objects (arrays, byte arrays, tuples, modules,
    relations, functions) live in the store and are denoted by OIDs, exactly
    the split TML literals make (section 2.2).

    Functions are store objects ([Func]) that carry, alongside their
    executable representations, the persistent TML tree (PTML) and the
    runtime R-value bindings of their free identifiers — the material the
    reflective optimizer of section 4.1 works from. *)

module Keys : Map.S with type key = Tml_core.Literal.t
(** index keys in the order IDX1 writes them: [Stdlib.compare], whose
    equality merges [0.0] with [-0.0] and one NaN with another *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Char of char
  | Real of float
  | Str of string
  | Oidv of Tml_core.Oid.t       (** reference into the store *)
  | Primv of string              (** a primitive procedure as a value *)
  | Closure of tree_closure      (** tree-walking-evaluator closure *)
  | Mclosure of mclosure         (** abstract-machine closure *)
  | Mblock of mblock             (** materialized inline continuation block *)
  | Halt of bool                 (** sentinel continuation: [true] = normal result,
                                     [false] = uncaught exception *)

and tree_closure = {
  t_abs : Tml_core.Term.abs;
  mutable t_env : t Tml_core.Ident.Map.t;
      (** mutable so that [Y] can tie recursive knots *)
}

and mclosure = {
  m_unit : Instr.unit_code;
  m_fn : int;
  m_env : t array;
}

and mblock = {
  b_frame : t array;       (** the frame of the enclosing invocation *)
  b_unit : Instr.unit_code;
  b_env : t array;         (** environment of the enclosing closure *)
  b_regs : int array;
  b_code : Instr.code;
}

(** {1 Store objects} *)

type obj =
  | Array of t array    (** mutable *)
  | Vector of t array   (** immutable *)
  | Bytes of bytes      (** mutable byte array *)
  | Tuple of t array    (** immutable record *)
  | Module of module_obj
  | Relation of relation
  | Func of func_obj
  | Index of index_obj   (** persistent secondary index of a relation *)
  | Stats of stats_obj   (** per-relation cardinality statistics *)

and module_obj = {
  mod_name : string;
  exports : (string * t) array;  (** name → value; immutable after linking *)
}

and relation = {
  rel_name : string;
  rel_page_size : int;
  mutable rel_pages : Tml_core.Oid.t array;
      (** sealed row pages, each a [Vector] of exactly [rel_page_size] rows
          ([Oidv]s of [Tuple]s), faulted on demand through the store — the
          header never materializes the full row array *)
  mutable rel_chunks : Tml_core.Oid.t array;
      (** sealed chunks of the rows after the pages, each a [Vector] of
          [Relcore.chunk_rows] rows, folded into one page when they fill
          it; empty when the page size is at most [Relcore.chunk_rows] *)
  mutable rel_tail : t array;
      (** growable buffer for the rows after the chunks (capacity array) *)
  mutable rel_tail_len : int;  (** valid prefix of [rel_tail] *)
  mutable rel_count : int;     (** total logical row count *)
  mutable rel_indexes : (int * Tml_core.Oid.t) list;
      (** indexes: field position → sibling [Index] store object,
          maintained incrementally by [Tml_query.Rel.insert] and
          committed/recovered with the relation *)
  mutable rel_stats : Tml_core.Oid.t option;
      (** sibling [Stats] store object feeding the cost-based planner *)
  mutable rel_triggers : t list;
      (** stored trigger procedures ([Oidv] of functions), invoked with each
          inserted tuple — "the body of database triggers may refer to
          programming language statements" (section 4.2): they are ordinary
          persistent functions the reflective optimizer can rewrite *)
  mutable rel_rows_cache : t array option;
      (** transient materialization for positional ([], size, move) access;
          invalidated on insert, never serialized *)
}

and index_obj = {
  ix_field : int;  (** the indexed tuple field *)
  mutable ix_keys : int list Keys.t;
      (** key → row positions, newest (largest) first.  A key is bound
          to the key of the last row that carried it.  Empty in a root *)
  mutable ix_distinct : int;  (** number of keys in [ix_keys] *)
  mutable ix_leaves : (Tml_core.Literal.t * Tml_core.Oid.t) array;
      (** a paged index's root: its leaves, each an index object holding
          the keys from its low key up to the next leaf's (the first leaf
          also every key below), ascending.  [[||]] in a leaf and in an
          index of one object (see [Relcore]) *)
}

and stats_obj = {
  mutable st_count : int;   (** row count at last maintenance *)
  mutable st_arity : int;   (** tuple width, [-1] when unknown/heterogeneous *)
  mutable st_distinct : (int * int) list;
      (** per-indexed-field distinct-key counts (field → distinct) *)
}

and func_obj = {
  fo_name : string;
  fo_tml : Tml_core.Term.value;  (** the [proc] abstraction, with free global identifiers *)
  fo_ptml : string;              (** compact persistent TML (section 4.1) *)
  mutable fo_bindings : (Tml_core.Ident.t * t) list;
      (** R-value bindings ([identifier, value] pairs) established at link
          time for the free identifiers of [fo_tml] *)
  mutable fo_tree_impl : t option;  (** cached linked tree closure *)
  mutable fo_mach_impl : t option;  (** cached compiled machine closure *)
  mutable fo_code : Instr.unit_code option;  (** cached compiled code *)
  mutable fo_summary : Tml_analysis.Infer.summary option;
      (** effect summary of [fo_tml], derived by the reflective optimizer
          when it installs optimized code; read when another function's
          optimization calls this one through its OID.  Reset with
          [fo_code], never persisted: a function faulted back from the
          store starts without one *)
  mutable fo_attrs : (string * int) list;
      (** derived attributes (costs, savings, ...) attached by the optimizer
          and kept with the persistent system state *)
}

(** {1 Indexes} *)

val index_create : int -> index_obj
(** an empty index on a tuple field *)

val index_add : index_obj -> Tml_core.Literal.t -> int -> bool
(** [index_add ix key pos] records row [pos] under [key] in the keys
    [ix] holds itself, and says whether [key] is new there.  Rows are
    added in position order, so [pos] is larger than every position
    already recorded and each key's list stays newest first *)

(** {1 Heap} *)

module Heap : sig
  type heap

  val create : unit -> heap
  val alloc : heap -> obj -> Tml_core.Oid.t

  (** @raise Invalid_argument on a dangling OID. *)
  val get : heap -> Tml_core.Oid.t -> obj

  val get_opt : heap -> Tml_core.Oid.t -> obj option

  val set : heap -> Tml_core.Oid.t -> obj -> unit
  (** [set heap oid obj] installs a new object in [oid]'s slot: it moves
      the {!generation} and reports a write (see {!note_write}) *)

  val note_write : heap -> Tml_core.Oid.t -> unit
  (** [note_write heap oid] reports that the object in [oid]'s slot was
      changed in place: it fires the update hook and leaves the
      {!generation} alone, since the slot still holds the same object.
      Every in-place write to an object that may be committed already
      reports itself this way; an object allocated since the last
      commit is written anyway and needs no report *)

  val size : heap -> int

  val generation : heap -> int
  (** monotonic counter moved by every [set], [evict] and [truncate] —
      whenever a slot's object is replaced or dropped.  It is the one
      key of the compiled tier's per-site inline caches: a cached
      dereference or callee can never outlive its slot's object.
      Reads and in-place writes ({!note_write}) leave it alone *)

  (** [iter f heap] applies [f] to every live object.  On a store-backed
      heap only materialized objects are visited; no faulting happens. *)
  val iter : (Tml_core.Oid.t -> obj -> unit) -> heap -> unit

  (** {2 Backing-store hooks}

      A durable store ([Pstore]) attaches itself to a heap through two
      hooks, making dereference the faulting point: [get]/[get_opt] on an
      empty slot consult the fault hook and install whatever object it
      returns; every [set] and {!note_write} reports to the update hook
      (dirty tracking).  Reading a present object fires nothing.  A heap
      with no hooks behaves exactly as before — empty slots are dangling
      references. *)

  val set_fault_hook : heap -> (Tml_core.Oid.t -> obj option) -> unit
  val set_update_hook : heap -> (Tml_core.Oid.t -> unit) -> unit

  val clear_hooks : heap -> unit
  (** detach the backing store: the heap keeps its materialized objects
      and reverts to plain in-memory behaviour *)

  val reserve : heap -> int -> unit
  (** [reserve heap n] extends the address space so OIDs [0..n-1] are
      valid (empty slots); used when opening a store whose objects are
      faulted in on demand *)

  val peek : heap -> Tml_core.Oid.t -> obj option
  (** like [get_opt] but never faults and fires no hooks — a raw slot
      read for the store's own bookkeeping *)

  val evict : heap -> Tml_core.Oid.t -> unit
  (** drop a materialized object, returning its slot to the faultable
      state.  Only safe for clean objects of a store-backed heap: on a
      plain heap this turns the OID into a dangling reference. *)

  val truncate : heap -> int -> unit
  (** [truncate heap n] forgets every object at OID [n] and above and
      moves the allocation cursor back to [n], so the next {!alloc}
      returns OID [n] again; bumps the {!generation}.  Only safe when
      nothing outside the dropped range refers to it.
      @raise Invalid_argument unless [0 <= n <= size heap] *)

  val is_loaded : heap -> Tml_core.Oid.t -> bool
  (** whether the slot is materialized (no hooks fired) *)

  val loaded_count : heap -> int
  (** number of materialized slots *)

  (** [alloc_func heap ~name ?bindings tml] allocates a [Func] object,
      computing its PTML encoding; [bindings] (default none) are its
      R-value bindings. *)
  val alloc_func :
    heap -> name:string -> ?bindings:(Tml_core.Ident.t * t) list -> Tml_core.Term.value ->
    Tml_core.Oid.t
end

(** {1 Operations} *)

(** [identical a b] — object identity, the relation tested by the ["=="]
    primitive: immediate values compare by value (reals bit-for-bit), store
    references by OID, closures physically. *)
val identical : t -> t -> bool

(** [of_literal l] injects a TML literal. *)
val of_literal : Tml_core.Literal.t -> t

(** [to_literal v] projects immediate values (and OIDs) back to literals —
    the bridge the reflective optimizer uses to rebind runtime values inside
    TML terms.  Closures and blocks have no literal form. *)
val to_literal : t -> Tml_core.Literal.t option

val type_name : t -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
