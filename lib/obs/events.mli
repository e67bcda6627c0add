(** Typed event vocabulary used across the system.  Every emitter is a
    no-op (single ref read) while [Trace.enabled] is false; {!vm_run}
    additionally feeds an always-on [vm.run_steps] histogram in the
    metrics registry.  See docs/OBS.md for the schema. *)

(** Optimizer rule fire with before/after size and static cost of the
    rewritten subtree; [fact] is the enabling analysis fact ([""] for
    none). *)
val rule_fire :
  rule:string ->
  fact:string ->
  site:string ->
  size_before:int ->
  size_after:int ->
  cost_before:int ->
  cost_after:int ->
  unit

(** Expansion (inlining) accept/reject at a call site with growth-budget
    accounting. *)
val expand_site :
  accepted:bool -> site:string -> body_size:int -> growth:int -> growth_limit:int -> unit

(** The optimizer stopped because the penalty budget ran out. *)
val budget_exhausted : round:int -> penalty:int -> limit:int -> unit

(** Reflective re-optimization of a stored function. *)
val reoptimize : name:string -> oid:int -> unit

(** Durable-store lifecycle. *)
val store_commit : objects:int -> bytes:int -> unit

val store_fault : oid:int -> bytes:int -> unit
val store_compact : live:int -> dropped:int -> unit

(** VM execution: one event per [run_proc] with the step count and a
    power-of-two bucket label; always observes [vm.run_steps]. *)
val vm_run : engine:string -> steps:int -> unit

(** Tiered-execution lifecycle, named by function: a code unit
    compiled to the closure tier, and compiled code dropped with
    replaced function code.  Entries into compiled code, one per row a
    compiled scan predicate sees, are only counted (the [tier] source's
    [runs]). *)
val tier : [ `Promote | `Deopt ] -> name:string -> unit
