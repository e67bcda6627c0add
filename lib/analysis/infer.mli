(** Effect inference over TML terms.

    A fixpoint dataflow analysis in the style of Gifford & Lucassen effect
    systems, adapted to CPS: the environment maps identifiers to what is
    known about the value they are bound to (a latent {!summary} for
    λ-abstractions, a resolved signature for continuations, nothing for
    opaque values).  β-redexes are analyzed by binding, primitive
    applications join the latent signatures of the procedures the primitive
    is known to invoke (query predicates, trigger bodies) with the
    signatures of the continuation arguments, unknown callees go to
    {!Effsig.top}, and [Y] nests are iterated to a fixpoint with divergence
    always assumed. *)

open Tml_core

(** The latent signature of an abstraction: exits through the abstraction's
    own continuation parameters stay symbolic in [body_sig] and are mapped
    through the actual arguments at each application. *)
type summary = {
  params : Ident.t list;
  body_sig : Effsig.t;
}

type cont_info = {
  c_arity : int option;
  c_sig : Effsig.t;
}

type denot =
  | Dproc of summary
  | Dcont of cont_info
  | Dprim of string
  | Dopaque

type env = denot Ident.Map.t

val empty_env : env

(** Resolution hook for procedures appearing as literal OIDs: [None]
    (an unknown callee) by default.  [Tml_reflect.Reflect] sets it for
    the duration of one optimizer run to the summaries stored on the
    function objects of the heap under optimization, so a resolved OID
    can never name a procedure of another heap. *)
val oid_resolver : (Oid.t -> summary option) ref

(** [sig_of_app ?env a] infers the signature of running [a].  Free
    identifiers not bound in [env] are opaque: calling one yields
    {!Effsig.top}, jumping to one records an exit. *)
val sig_of_app : ?env:env -> Term.app -> Effsig.t

(** [summary_of_value v] is the latent summary of an abstraction, [None]
    for other values. *)
val summary_of_value : Term.value -> summary option

(** [summarize env a] is the latent summary of [a] with its parameters
    opaque, resolved against [env]. *)
val summarize : env -> Term.abs -> summary

(** [strip s] is the effect of invoking the summarized abstraction with
    unknown arguments (its own parameters removed from the exit set). *)
val strip : summary -> Effsig.t

(** [jumps_with_arity v n a]: every occurrence of [v] in [a] is as the head
    of an application of exactly [n] arguments.  Rules that delete or move
    a term based on an [Exact] exit set use this to rule out arity faults
    at the exit jumps themselves. *)
val jumps_with_arity : Ident.t -> int -> Term.app -> bool

