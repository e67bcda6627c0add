(** tmld — the multi-session database server (docs/SERVER.md).

    One process owns one durable store ([Tml_store.Log_store]) and serves
    many concurrent TL sessions over the {!Wire} protocol.  Each
    connection runs in its own thread on a {e snapshot-backed} persistent
    heap ([Tml_vm.Pstore.open_snapshot]): reads are pinned to the
    committed epoch the session last observed, so a reader at epoch [E]
    never sees a commit from epoch [E+1] until its own next commit moves
    its pin forward.

    Writes are funnelled through a single {e group committer}: sessions
    stage object batches (encoded under their own thread), the committer
    batches every request that arrives within one commit window into a
    single log seal — one [fsync] absorbing N clients' commits.  Commit
    requests are validated first-committer-wins: a batch touching an OID
    sealed past the requester's pinned epoch (or claimed by an earlier
    winner of the same group) is refused with [Conflict] and nothing of
    it is applied.

    Evaluation is serialized by one process-wide lock — the language
    runtime's identifier stamps are shared mutable state, and OCaml's
    threads interleave rather than run in parallel anyway.  The lock is
    {e not} held across the committer's [fsync], which is where the real
    concurrency win lives.  Nothing the optimizer derives is shared
    between sessions: an effect summary lives on the function object in
    one session's heap, so a function faulted from the store starts
    without one.

    New OIDs come from one server-wide allocation cursor, moved only
    under the eval lock: before a session evaluates, its heap grows to
    the cursor, so concurrent sessions never collide on fresh OIDs and
    every session can fault any object sealed at its pinned epoch,
    whichever session allocated it.

    An [Eval] that defines no names and changes no older object leaves
    nothing behind: once its reply is rendered, its fresh objects are
    dropped and the allocation cursor moves back to where the [Eval]
    began, so a read-only session stages nothing and its [Commit] seals
    nothing. *)

type config = {
  store_path : string;
  addr : Wire.addr;
  max_clients : int;  (** admission control: connections past this get [Busy] *)
  commit_window : float;  (** seconds the committer waits to batch a group *)
  staged_cap : int;  (** per-session staged-byte cap; [Eval] past it gets [Busy] *)
  fsync : bool;
  slow_ms : float;
      (** [Eval]/[Pull] requests slower than this (milliseconds) land in
          the persistent slow-query log ([store_path ^ ".slowlog"]);
          [0.] disables capture (the log still loads and serves reads) *)
  slowlog_limit : int;  (** retained slow-log entries *)
}

val default_config : store_path:string -> addr:Wire.addr -> config
(** [max_clients = 64], [commit_window = 2ms], [staged_cap = 16 MiB],
    [fsync = true], [slow_ms = 0.] (off), [slowlog_limit = 128] *)

type t

val start : config -> t
(** Bootstrap the store (create it with a fresh stdlib session if
    [store_path] does not exist; recover it and check that its session
    manifest restores if it does), bind and listen on [addr], and
    spawn the accept loop and the group committer.
    @raise Failure if the address cannot be bound *)

val stop : t -> unit
(** Graceful shutdown: stop admitting, shut down every live connection
    (in-flight requests finish; blocked reads wake), drain the
    committer, join all threads, close the store.  Idempotent. *)

val wait : t -> unit
(** block until {!stop} completes (for a daemon main loop) *)

val active_sessions : t -> int

val slowlog : t -> Tml_obs.Slowlog.t
(** the live slow-query ring (loaded from [store_path ^ ".slowlog"] at
    start, saved on capture and at {!stop}) *)

(** Server metrics (in the [Tml_obs.Metrics] registry, reported by the
    [Stat] frame): counters [server.connections], [server.evals],
    [server.commits], [server.group_commits], [server.conflicts],
    [server.busy], [server.slow_queries], [server.evals_reclaimed] and
    [server.objects_reclaimed] (read-only [Eval]s whose fresh objects
    were dropped, and how many objects that was); histograms
    [server.commit_latency_s], [eval_lock.wait_s], [eval_lock.hold_s]
    and [commit.group_wait_s] (p50/p99) — the three phase histograms
    decompose commit latency into lock serialization, batching window
    and fsync; source [server] with [sessions_active], [epoch],
    [fsync_amortization] = committed requests per log seal (experiment
    E13), [slowlog_entries] and [slowlog_dropped].

    With [Tml_obs.Trace] enabled the server also emits per-request
    spans ([server.eval], [server.commit], ...; args [session], [trace],
    [parent] from the client's {!Wire.trace_ctx}), [eval_lock.wait] /
    [eval_lock.hold] phases, [commit.submit] waits, the committer's
    [commit.group] / [commit.fsync] spans tagged with the fsync group
    id, and a [commit.sealed] instant joining each request's trace id to
    its group id (an empty commit joins no group and emits none). *)
