(** Persistent reflective specialization cache.

    [Reflect.optimize] specializes a stored function against the literal
    forms of its re-established λ-bindings; the result is a pure function
    of (callee PTML, binding literals, optimizer configuration) and of the
    store objects the rewrite rules consulted.  This cache remembers those
    results so a repeated specialization — the common case on a hot link
    path, and {e every} case after reopening a durable image — costs a
    lookup instead of an optimizer run.

    Entries are keyed by (callee OID, fingerprint) and carry a dependency
    list of (OID, content digest) pairs covering everything the
    optimization read from the rest of the store.  A hit is served only
    after every dependency's current digest matches (verify-on-hit); a
    mismatch drops the entry and reports a miss.  Digests are restricted
    to what specialization can observe: a function's PTML and binding
    literals (not its derived attributes), a relation's name, indexed
    fields and triggers (not its rows — rows influence execution, never
    plan shape), a vector/tuple's literal slots, only the length of
    mutable arrays and byte arrays.

    The table is bounded by an LRU ([set_capacity], default 256 entries)
    and serializes to a compact binary form that the REPL session manifest
    persists through the log store, so a reopened image skips
    re-optimization entirely.

    Like [Analysis.Cache], entries are keyed by OID and therefore scoped
    to one heap: contexts that create fresh heaps (the fuzz oracle) must
    [clear].  Rebinding or mutating a function must [invalidate] it. *)

type outcome = {
  sc_ptml : string;  (** optimized body, PTML-encoded *)
  sc_attrs : (string * int) list;  (** derived attributes for the function object *)
  sc_inlined : int;
  sc_rounds : int;
  sc_penalty : int;
  sc_expansions : int;
  sc_size_before : int;
  sc_size_after : int;
  sc_cost_before : int;
  sc_cost_after : int;
  sc_prov : Tml_obs.Provenance.t;
      (** derivation log of the original specialization, so a warm hit
          (including after a durable reopen) can still explain itself *)
}

(** [fingerprint ~ptml ~bindings ~config] digests the callee-side key
    material: the stored PTML, the literal forms of the bindings (live
    closures contribute a fixed marker — they stay free in the specialized
    code), and a rendering of the optimizer configuration. *)
val fingerprint :
  ptml:string -> bindings:(Tml_core.Ident.t * Value.t) list -> config:string -> string

(** [find heap ~callee ~fp] returns the cached outcome after verifying
    every recorded dependency digest against the current store (faulting
    unloaded objects in via [Heap.get_opt]).  A verification failure
    drops the entry and counts as a miss. *)
val find : Value.Heap.heap -> callee:Tml_core.Oid.t -> fp:string -> outcome option

(** [store heap ~callee ~fp ~deps outcome] records a specialization,
    digesting each dependency in the store state the optimization
    observed.  The callee itself is excluded from [deps] (the fingerprint
    covers it).  May evict LRU entries beyond the capacity. *)
val store :
  Value.Heap.heap -> callee:Tml_core.Oid.t -> fp:string -> deps:Tml_core.Oid.t list ->
  outcome -> unit

(** [invalidate oid] drops every entry specialized {e for} [oid] or
    {e depending on} [oid] — call on rebinding, in-place mutation, or any
    store update that bypasses digest verification. *)
val invalidate : Tml_core.Oid.t -> unit

(** [subscribe_invalidate f] arranges for [f oid] to run on every
    {!invalidate}, before entries are dropped and regardless of whether
    any entry matched.  The tiered-execution policy ({!Tierup})
    subscribes so plan-relevant store mutations also deoptimize compiled
    code.  Subscriptions are permanent and process-global. *)
val subscribe_invalidate : (Tml_core.Oid.t -> unit) -> unit

val clear : unit -> unit

(** [forget ~lo ~hi] drops every entry specialized for, or depending
    on, an OID in [lo, hi) — objects a session discarded, whose OIDs it
    will allocate again.  Unlike {!invalidate} it notifies nobody. *)
val forget : lo:int -> hi:int -> unit

val length : unit -> int
val set_capacity : int -> unit

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable verify_failures : int;
  mutable invalidations : int;
  mutable evictions : int;
}

val stats : unit -> stats

(** Zero the counters without touching the cached entries. *)
val reset_stats : unit -> unit

(** Register the counters (plus current entry count) as the
    ["speccache"] source in the [Tml_obs.Metrics] registry. *)
val register_metrics : unit -> unit

(** {1 Serialization} *)

exception Corrupt of string

val encode : unit -> string

(** [decode s] replaces the cache contents.  @raise Corrupt on a malformed
    image. *)
val decode : string -> unit

(** [obj_digest obj] — the per-kind content digest (exposed for tests). *)
val obj_digest : Value.obj -> string
