(** Effect signatures: the lattice of the analysis framework.

    A signature abstracts what running a TML term (an application, or the
    body of an abstraction) can do: the worst {!Tml_core.Prim.effect_class}
    reachable through applications, whether evaluation can diverge (every
    [Y] is assumed to), whether it can fault (runtime type errors, missing
    [==] default), and through which continuation variables control can
    leave the term.  Effect classes form the chain
    Pure < Observer < Mutator < Control < External, so joins are maxima. *)

open Tml_core

type exits =
  | Exact of Ident.Set.t
      (** control leaves only by jumping to one of these (free) continuation
          variables *)
  | Unknown  (** control can escape through unknown continuations *)

type t = {
  eff : Prim.effect_class;
  diverges : bool;
  faults : bool;
  exits : exits;
}

val class_rank : Prim.effect_class -> int
val class_join : Prim.effect_class -> Prim.effect_class -> Prim.effect_class
val class_leq : Prim.effect_class -> Prim.effect_class -> bool

(** Pure, terminating, fault-free, exits nowhere. *)
val bot : t

(** External, possibly diverging, possibly faulting, unknown exits. *)
val top : t

val join : t -> t -> t
val equal : t -> t -> bool

(** [exit_to c] is the signature of a jump to the opaque continuation [c]. *)
val exit_to : Ident.t -> t

(** [read_only s] holds when [s.eff] is [Pure] or [Observer]. *)
val read_only : t -> bool

(** [exits_within s ids] holds when every exit of [s] is in [ids]
    ([Unknown] exits never are). *)
val exits_within : t -> Ident.Set.t -> bool

(** [total s cc]: the term always terminates without fault and leaves only
    through [cc] — the precondition for deleting it when its result is
    dead. *)
val total : t -> Ident.t -> bool

val pp : Format.formatter -> t -> unit
