(** An interactive, persistent TL session — the Tycoon working style.

    A session owns one store: definitions entered later are compiled,
    linked and added to it incrementally; expressions are compiled as
    nullary procedures and run against the live store, so mutations
    (relation inserts, array updates, index creation) persist across
    inputs.  Redefinition is supported: the new function object replaces
    the global, and every existing function is relinked — a new function
    object with re-resolved R-value bindings replaces it in its slot,
    leaving the old one's cached implementations and effect summary
    behind — so older callers pick up the new definition: dynamic
    relinking in the spirit of figure 3.  An expression's function and
    a value's initializer are allocated with their bindings resolved,
    so evaluating an expression replaces no slot.

    The session's heap can be saved with {!Tml_vm.Image} and the function
    objects reflectively optimized with [Tml_reflect.Reflect] (see
    [bin/tmlsh.ml]). *)

open Tml_vm

type session

(** [create ?mode ()] starts a session with the TL standard library
    compiled and linked. *)
val create : ?mode:Lower.mode -> unit -> session

val ctx : session -> Runtime.ctx

(** [function_oid session name] — look up a linked function by canonical
    name. *)
val function_oid : session -> string -> Tml_core.Oid.t option

(** Everything linked so far, in link order. *)
val function_oids : session -> (string * Tml_core.Oid.t) list

(** [global session name] — the linked value of a global. *)
val global : session -> string -> Value.t option

type feed_result = {
  defined : string list;  (** canonical names defined by this input *)
  result : (Eval.outcome * int) option;
      (** outcome and abstract instructions of the input's expression /
          [do] blocks, if any *)
  output : string;  (** what the input printed *)
}

(** [feed session src] processes one input: top-level definitions and/or
    [do] blocks; a bare expression [e] is accepted as sugar for
    [do e end].
    @raise Lexer.Lex_error, Parser.Parse_error, Typecheck.Type_error,
    Runtime.Fault *)
val feed : session -> string -> feed_result

(** [render r] — what tmlsh prints and tmld answers for one input:
    a ["defined NAME"] line per name, the input's output, then
    ["- : V (in N instructions)"] for a value other than unit,
    ["uncaught exception: V"] or another outcome *)
val render : feed_result -> string

(** [lookup_tml session name] — the current TML of a linked function
    (for [:dump]). *)
val lookup_tml : session -> string -> Tml_core.Term.value option

(** {1 Durable sessions}

    A session running on a store-backed heap ({!Pstore}) persists as a
    manifest module recorded as the store root, with three exports: the
    definition sources fed so far, the global bindings and the
    linked-function table.  Each expression runs as a fresh function
    object named [it]; none of them is recorded in the manifest. *)

(** [persist session pstore] writes the manifest and commits every dirty
    and new object; returns the number of objects written.  The session
    must be running on [pstore]'s heap (created with [Pstore.attach] or
    restored with {!restore}). *)
val persist : session -> Pstore.t -> int

(** [stage session pstore] writes (or updates in place) the manifest
    objects in the heap {e without} committing, and returns the root OID
    the sealing commit should record with the objects it wrote — the
    server stages the manifest this way and hands the batch to its group
    committer. *)
val stage : session -> Pstore.t -> Tml_core.Oid.t * Tml_core.Oid.t list

(** [restore pstore] rebuilds a session from the store's manifest:
    sources are replayed through the type checker and the lowering
    environment only — nothing is linked, no initializer re-runs, and no
    object is decoded until first use.  A manifest written while the
    specialization cache existed also exports ["#speccache"]; restore
    ignores it, and the next {!stage} writes the manifest without it.
    @raise Runtime.Fault if the store has no session manifest *)
val restore : ?mode:Lower.mode -> Pstore.t -> session
