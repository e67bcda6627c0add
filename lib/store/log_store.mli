(** An append-only, log-structured, single-file object store: the
    durability layer underneath the persistent heap (see docs/STORE.md).

    The file is a sequence of length-prefixed, CRC-32-checksummed records.
    [commit] takes one transaction's batch of [oid -> payload] pairs and
    appends one record per pair followed by a {e commit record} that seals
    them (write-ahead semantics: the seal is the atomic point — a
    transaction either ends in a valid seal or, after recovery, never
    happened).  Nothing is staged inside the store between commits.
    [open_] replays the log, rebuilds the in-memory OID directory from the
    sealed prefix and truncates any torn tail.

    This layer deals in opaque payload strings; encoding and decoding of
    store objects, lazy faulting and caching live in [Tml_vm.Pstore].

    {b Concurrency.}  Every operation takes the store's internal lock, so
    one [t] may be shared between threads: the server ([Tml_server])
    runs many snapshot readers and a single group-committing writer over
    one store.  The directory is {e multi-version}: while a {!snapshot}
    is pinned, superseded versions of an object stay reachable from the
    epoch the snapshot was pinned at, so a reader pinned at epoch [E]
    never observes a commit from epoch [E+1]. *)

exception Store_error of string

type t

(** {1 Lifecycle} *)

val create : ?fsync:bool -> string -> t
(** [create path] starts a fresh, empty store, truncating any existing
    file.  [fsync] (default [true]) controls whether commits flush to
    stable storage before returning. *)

val open_ : ?fsync:bool -> string -> t
(** [open_ path] recovers an existing store: the directory is rebuilt
    from the longest prefix ending in a valid commit record; anything
    after it (a torn write, a crashed transaction) is cut off and counted
    in {!stats}.  @raise Store_error if the file is missing or its header
    is not a store header. *)

val close : t -> unit

(** {1 Transactions} *)

val commit : ?root:int -> t -> (int * string) list -> int
(** [commit ?root t batch] appends one record per [(oid, payload)] pair of
    [batch] (each OID at most once) and a sealing commit record, then (by
    default) fsyncs.  [root] updates the distinguished
    root OID stored in the seal (it is sticky across commits).  Returns
    the number of object records written; an empty batch with an
    unchanged root writes nothing and returns 0.
    @raise Store_error on a negative OID *)

(** {1 Reads} *)

val find : t -> int -> string option
(** [find t oid] — the last sealed payload, read back from the file *)

val root : t -> int option
(** the root OID recorded by the last seal — the entry point a client
    faults first on reopen (e.g. the session manifest) *)

(** {1 Snapshots (MVCC read views)}

    A snapshot pins the store at its current committed epoch
    ({!seq}): reads through it resolve every OID to the newest version
    sealed {e at or before} that epoch, never to a later commit.  Superseded versions are retained while any
    snapshot that can see them is pinned and pruned on {!release}.

    While any snapshot is pinned, each commit also records the OIDs it
    sealed in a {e write journal}.  An entry lives as long as some pin
    is older than its commit: it is what {!written_after} reads, and the
    only chains a {!release} has to prune. *)

type snapshot

val pin : t -> snapshot
(** pin a read view at the current committed epoch; constant time (the
    highest sealed OID is maintained, not computed) *)

val release : t -> snapshot -> unit
(** drop the pin; idempotent.  When that moves the oldest pin (or
    releases the last one), the journal entries no remaining pin is
    older than expire, and their OIDs' chains are pruned to the
    versions the remaining pins can see.  Any other release prunes
    nothing. *)

val written_after : t -> snapshot -> int list
(** [written_after t sn] — every OID sealed by a commit after [sn]'s
    epoch, ascending and without duplicates: what a session pinned at
    [sn] must stop trusting in its cache when it moves to a newer pin.
    Read it before releasing [sn].
    @raise Store_error if the snapshot was released *)

val snapshot_seq : snapshot -> int
(** the pinned epoch *)

val snapshot_root : snapshot -> int option
(** the root OID as sealed at the pinned epoch *)

val snapshot_max_oid : snapshot -> int
(** highest sealed OID visible at the pinned epoch; -1 when empty *)

val find_at : t -> snapshot -> int -> string option
(** [find_at t sn oid] — the payload of [oid] as of the snapshot's epoch.
    @raise Store_error if the snapshot was released *)

val latest_seq : t -> int -> int option
(** the epoch of the newest sealed version of an OID — the committer's
    first-committer-wins conflict check compares this against a writer's
    pinned epoch *)

(** {1 Introspection} *)

val path : t -> string
val stats : t -> Store_stats.t

val max_oid : t -> int
(** highest sealed OID; -1 when empty *)

val object_count : t -> int

val version_count : t -> int
(** sealed versions held in the directory, over every OID: equal to
    {!object_count} when nothing is pinned *)

val seq : t -> int

val file_bytes : t -> int
(** size of the sealed log in bytes *)

val live_bytes : t -> int
(** payload bytes reachable from the directory (excludes superseded
    versions — the gap to {!file_bytes} is what {!compact} reclaims) *)

val register_metrics : ?name:string -> t -> unit
(** register a live metrics source (default name ["store.log"]) exposing
    [seq] (the epoch), [fsync], [snapshots_pinned],
    [objects] and [file_bytes] in the {!Tml_obs.Metrics} registry — the
    values [tmlsh :stats] and the server's [stat] frame report *)

(** {1 Compaction} *)

val compact : t -> unit
(** Rewrite only the live objects into a fresh file and atomically rename
    it over the store (offline: the caller must be the only user, with no
    pinned snapshots).  Directory offsets, sequence
    number and root carry over.
    @raise Store_error while snapshots are pinned *)
