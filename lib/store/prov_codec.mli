(** Binary codec for optimization derivation logs
    ([Tml_obs.Provenance.t]), persisted in the durable image as [Bytes]
    heap objects referenced from a function's ["provenance"] attribute
    (so the object codec and existing images are untouched). *)

exception Corrupt of string

(** Format magic, ["PRV1"]. *)
val magic : string

val encode : Tml_obs.Provenance.t -> string

(** @raise Corrupt on bad magic, truncation, malformed varints or
    trailing bytes. *)
val decode : string -> Tml_obs.Provenance.t
