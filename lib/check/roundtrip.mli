(** Round-trip oracles for the three persistence layers.

    Each oracle answers [Pass] when the decoded / reopened artefact is
    observably equal to the original, [Fail] with a diagnostic otherwise,
    and [Skip] when the input is legitimately outside the codec's domain
    (persisting a live closure is {e specified} to be rejected — a
    generated program that stores one in a trigger list produces an
    unpersistable heap, not a codec bug). *)

open Tml_core
open Tml_vm

type outcome =
  | Pass
  | Skip of string
  | Fail of string

val pp_outcome : Format.formatter -> outcome -> unit

(** [ptml_value v] — PTML encode, decode, compare α-equivalent.  The codec
    preserves identifier stamps, so the stronger structural equality is
    also checked; α-equivalence is the specified contract and is what a
    failure reports. *)
val ptml_value : Term.value -> outcome

(** [obj o] — per-object binary encode/decode ({!Obj_codec}); compares the
    canonical rendering and, for relations, the persisted index-field
    list (indexes themselves are rebuilt on faulting, not persisted). *)
val obj : Value.obj -> outcome

(** [heap_reopen ~path setup] — populate a fresh durable store at [path]
    (truncating any previous one) by running [setup] on a context whose
    heap is attached to it, and commit.  [setup] returns a second step,
    run after that commit, whose writes reach objects the commit sealed;
    commit again, close, reopen, fault {e every} object back in, and
    compare full canonical dumps (function objects included) with the
    heap as the second commit found it.  [path] is removed afterwards. *)
val heap_reopen : path:string -> (Runtime.ctx -> unit -> unit) -> outcome
