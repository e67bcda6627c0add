(** The persistent heap: a [Value.Heap.heap] backed by the durable log
    store ([Tml_store.Log_store]), with on-demand object faulting.

    Every store pins a {!Tml_store.Log_store.snapshot} and faults every
    object from that epoch: {!create}, {!attach} and {!open_} pin the log
    they own, {!open_snapshot} pins a shared one.  Opening a store
    materializes {e nothing}: the heap's address space is reserved and
    every object is faulted in — decoded from its log record — on first
    dereference.  Writes are tracked through the heap's update hook:

    - a write marks its object dirty: a {!Value.Heap.set} of a new
      object, or an in-place write reported with
      {!Value.Heap.note_write};
    - objects allocated since the last commit are new;
    - a read marks nothing, so a clean object stays clean and cached.
      It goes stale only when another session seals a newer version of
      it, and {!mark_committed} drops exactly those.

    There is one write path.  {!collect} encodes every dirty and new
    object and keeps those whose encoding differs from the pinned
    version (the server keeps that batch for the commit that follows
    its Eval); {!commit} seals that batch with one write-ahead commit
    record ({!Tml_store.Log_store.commit}), pins the new epoch and hands
    it to {!mark_committed} — the steps the server's group committer
    runs for each winner.  After a crash the store recovers exactly the
    last sealed state.  Faults and encodes are counted in the registry
    cells below, commits and recovery truncations in {!Tml_store.Log_store}'s. *)

exception Store_error of string

type t

(** {1 Lifecycle} *)

val create : ?fsync:bool -> string -> t
(** fresh store file with a fresh, empty heap; [fsync] as in
    {!Tml_store.Log_store.create} *)

val attach : ?fsync:bool -> string -> Value.Heap.heap -> t
(** fresh store file adopting an existing in-memory heap; every object
    in it is treated as new and written by the first {!commit}, but was
    not created by that transaction (see {!mark_committed}) *)

val open_ : ?fsync:bool -> string -> t
(** recover an existing store (torn tail truncated, directory rebuilt)
    and hand back a lazy heap: no object is decoded until dereferenced.
    @raise Tml_store.Log_store.Store_error as {!Tml_store.Log_store.open_} *)

val open_snapshot : Tml_store.Log_store.t -> alloc_base:int -> t
(** [open_snapshot log ~alloc_base] — a {e snapshot-backed} store over an
    already-open (possibly shared) log: it pins a
    {!Tml_store.Log_store.snapshot} at the current committed epoch and
    faults every object from that epoch, so concurrent commits by other
    sessions are invisible.  New allocations start at [alloc_base]: the
    server passes its one allocation cursor, and keeps every session heap
    grown to it ({!Value.Heap.reserve}) so concurrently staged objects
    never collide.  {!commit} is refused on such a store; use {!collect}
    / {!mark_committed} with a group committer.
    @raise Store_error if [alloc_base] overlaps already-sealed OIDs *)

val close : t -> unit
(** detach the hooks, release the pin and close the file (a
    snapshot-backed store leaves the shared log open).  The heap survives
    with whatever was materialized, as a plain in-memory heap. *)

(** {1 Transactions} *)

val commit : ?root:Tml_core.Oid.t -> t -> int
(** {!collect}, seal the batch, pin the new epoch and {!mark_committed}
    it; returns the number of objects written (0 when nothing changed).
    [root] updates the store's sticky root OID — the entry point {!root}
    reports after reopening.
    @raise Store_error if an object holds a live closure, or on a
    snapshot-backed store (its commits go through a group committer) *)

val compact : t -> unit
(** commit, then rewrite the file keeping only live objects (see
    {!Tml_store.Log_store.compact}); the store's own pin is dropped for
    the rewrite and re-taken at the compacted epoch *)

val collect : t -> (int * string) list
(** encode every written and new object into an [(oid, payload)] batch
    without sealing anything — what {!commit} seals, and what a server
    session hands to the group committer.  Only written objects are
    encoded (each one counts in {!objects_encoded}): a read stages
    nothing.  A written object whose encoding is byte-identical to the
    version visible at this store's pinned epoch (written back
    unchanged) is dropped from the batch.
    @raise Store_error if an object holds a live closure *)

val recollect : t -> (int * string) list -> Tml_core.Oid.t list -> (int * string) list
(** [recollect t batch oids] — [batch], which {!collect} or
    {!reclaim_from} returned and nothing has written since but [oids],
    with [oids] encoded afresh: the server adds the manifest a commit
    stages to the batch its Eval kept *)

val mark_committed : t -> Tml_store.Log_store.snapshot -> unit
(** after this session's last {!collect} was sealed (or nothing was to
    seal): adopt [snapshot] (pinned at the sealing
    epoch) as the new read view, release the old one, clear dirty
    tracking and advance the watermark.  The cache keeps every object
    the session read, updated or created, with two exceptions.  An
    object that another commit sealed after the old pin
    ({!Tml_store.Log_store.written_after}) is evicted and re-faults at
    the new epoch; each one counts in {!cache_invalidations}.  A function
    object this transaction created (allocated past the heap's size at
    the last commit, or when the store adopted the heap) is evicted too:
    most are one-shot expression functions, and a call faults it back. *)

val reclaim_from : t -> int -> (int * string) list option
(** [reclaim_from t lo] — after an Eval that began at heap size [lo]
    and defined no name.  When a commit now would write no object below
    [lo], nothing older refers to the Eval's fresh objects and no
    earlier Eval left any staged, so they are garbage: every object at
    OID [lo] or above is dropped from the heap and the dirty set, the
    allocation cursor moves back to [lo] ({!Value.Heap.truncate}), the
    older dirty objects (written back unchanged) are clean again, and
    the result is [None].  Otherwise the result is the {!collect}
    batch.  To decide, it encodes only the dirty objects below [lo]
    (none after a read-only Eval) and reuses them in the batch.  The
    caller guarantees no process-wide table refers to the dropped
    objects.
    @raise Invalid_argument if [lo] is below the watermark *)

val snapshot : t -> Tml_store.Log_store.snapshot
(** the pinned read view *)

val epoch : t -> int
(** the epoch reads observe: the pinned snapshot's *)

(** {1 Access} *)

val heap : t -> Value.Heap.heap
val root : t -> Tml_core.Oid.t option
val log : t -> Tml_store.Log_store.t

(** {1 Introspection} *)

val path : t -> string

val uncommitted_count : t -> int
(** dirty objects plus loaded objects past the watermark that have no
    sealed version — what a commit (or {!collect}) would consider
    writing.  Objects another session sealed and this one faulted do not
    count, wherever their OIDs fall. *)

val object_faults : Tml_obs.Metrics.counter
(** the registry counter [store.object_faults]: objects decoded from a
    log on first dereference, summed over every store in the process *)

val objects_encoded : Tml_obs.Metrics.counter
(** the registry counter [store.objects_encoded]: objects {!collect} and
    {!reclaim_from} encoded, summed over every store in the process *)

val cache_invalidations : Tml_obs.Metrics.counter
(** the registry counter [store.cache_invalidations]: cached objects a
    {!mark_committed} dropped because another commit sealed them after
    the session's old pin, summed over every store in the process *)
