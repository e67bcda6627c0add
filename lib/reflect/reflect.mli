(** The reflective dynamic optimizer (section 4.1, figure 3).

    "The programmer can obtain a (dynamically created) function
    [optimizedAbs] which is equivalent to the original function [abs] but
    which executes faster than the original by explicitly invoking the
    optimizer: [let optimizedAbs = reflect.optimize(abs)]".

    [optimize] implements the full cycle: fetch the function object's
    persistent TML and its R-value bindings ([identifier, value] pairs
    established at link time), re-establish the bindings as λ-bindings
    around the original body — exactly the wrapper shown in the paper's
    TML listing for [abs] —, run the optimizer with the store-aware rules
    (which can now inline the bodies of other store functions, fold reads
    of immutable store objects, and apply runtime-binding-dependent query
    rules such as index selection), generate code for the result, link it
    into the running store, and return the new function.

    Derived attributes (static cost before/after, sizes) are attached to
    the generated function object and become part of the persistent system
    state, "to speed up repeated optimizations of (shared) functions". *)

open Tml_core

type config = {
  optimizer : Optimizer.config;
  inline_oid_limit : int;
      (** maximum body size of a store function worth inlining at a call
          site *)
  inline_budget : int;
      (** total number of cross-abstraction-barrier inlines per
          [optimize] call (bounds recursion unrolling) *)
  use_ptml : bool;
      (** decode the function's PTML instead of using the in-memory tree —
          exercises the persistent path of figure 3 *)
  use_query_rules : bool;
      (** include the query optimizer's rules (figure 4); disabling them
          gives the program-optimizer-only ablation of experiment E9 *)
}
(** Every call runs the optimizer; nothing is cached across calls.  The
    one piece of derived state an optimization leaves for later ones is
    the effect summary on the function object it installs
    ([Tml_vm.Value.func_obj.fo_summary]): while the optimizer runs, a
    literal OID resolves ({!Tml_analysis.Infer.oid_resolver}) to the
    summary on the function object it names {e in the heap under
    optimization}, without faulting, so a summary never outlives its
    object or answers for another heap's. *)

val default : config

type result = {
  oid : Oid.t;  (** the new, optimized function object *)
  original_tml : Term.value;
  optimized_tml : Term.value;
  report : Optimizer.report;
  inlined_calls : int;  (** calls inlined across abstraction barriers *)
}

(** [store_fold ctx] — fold reads ([[]], [size]) of {e immutable} store
    objects (vectors, tuples) whose target and index are literals: the
    "optimizations based on runtime bindings to arbitrary complex values in
    the persistent store" of section 1. *)
val store_fold : Tml_vm.Runtime.ctx -> Rewrite.rule

(** [inline_oid ctx ~budget ~limit ~count] — replace a call through a
    literal function OID by the (α-freshened, binding-substituted) body of
    that function: inlining across abstraction barriers. *)
val inline_oid :
  Tml_vm.Runtime.ctx -> budget:int ref -> limit:int -> count:int ref -> Rewrite.rule

(** [inline_query_arg ctx ~budget ~limit ~count] — substitute a literal
    function OID appearing as the procedure argument of a query operator
    (predicate, projection target, iteration body) by its body: the
    database-flavoured face of inlining ("view expansion"), and the step
    that exposes predicate shapes to the algebraic and index rules. *)
val inline_query_arg :
  Tml_vm.Runtime.ctx -> budget:int ref -> limit:int -> count:int ref -> Rewrite.rule

(** The store-aware rules as registry descriptors (name, fact, doc,
    dispatch heads) for the audit surface ([tmllint --rules]); their
    closures are context-free stand-ins that never fire — the live
    closures are built per-optimization with the real [ctx]. *)
val rule_descriptors : Tml_rules.Dsl.rule list

(** [with_heap_summaries heap f] runs [f] with
    {!Tml_analysis.Infer.oid_resolver} answering, for a literal OID, the
    effect summary on the function object [heap] holds there
    ([Heap.peek]: nothing is faulted in), and restores the previous
    resolver afterwards.  Every optimization below runs in this scope
    over the heap it optimizes. *)
val with_heap_summaries : Tml_vm.Value.Heap.heap -> (unit -> 'a) -> 'a

(** [optimize ?config ctx oid] — the reflective optimizer.
    @raise Tml_vm.Runtime.Fault if [oid] is not a function object. *)
val optimize : ?config:config -> Tml_vm.Runtime.ctx -> Oid.t -> result

(** [optimize_value ?config ctx fn] — convenience overload accepting a
    function value ([Oidv]). *)
val optimize_value : ?config:config -> Tml_vm.Runtime.ctx -> Tml_vm.Value.t -> result

(** [optimize_inplace ?config ctx oid] — run the same pipeline but install
    the optimized TML (and fresh PTML) {e into the existing function
    object}, invalidating its cached implementations: "link the
    newly-generated code into the running program".  Every existing
    reference to the function — other functions' R-value bindings, OID
    literals already embedded in optimized code — immediately sees the new
    version, which is what whole-program dynamic optimization (experiment
    E2) uses so that recursive calls also run optimized code. *)
val optimize_inplace : ?config:config -> Tml_vm.Runtime.ctx -> Oid.t -> result

(** [optimize_all ?config ctx oids] — [optimize_inplace] over a set of
    functions, twice: the second pass lets call sites inline the bodies the
    first pass already shrank. *)
val optimize_all : ?config:config -> ?passes:int -> Tml_vm.Runtime.ctx -> Oid.t list -> unit

(** [provenance ctx oid] — read back the persisted derivation log of
    [oid]: the "provenance" attribute references a [Bytes] object
    holding the [Prov_codec]-encoded log, faulted in on demand (so this
    works across a durable reopen).  For a function
    optimized non-inplace the log lives on the derived function;
    "optimized_as" is followed one step.  [None] when no log was
    recorded (provenance recording off, or nothing fired). *)
val provenance : Tml_vm.Runtime.ctx -> Oid.t -> Tml_obs.Provenance.t option
