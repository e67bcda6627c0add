(** Pretty printer for TML terms, mirroring the paper's listings.

    Abstractions are printed as [cont(x y) app] or [proc(x ce cc) app]
    according to the syntactic distinction of section 2.2; applications are
    parenthesised; identifiers carry their unique stamp. *)

val pp_value : Format.formatter -> Term.value -> unit
val pp_app : Format.formatter -> Term.app -> unit

val value_to_string : Term.value -> string
val app_to_string : Term.app -> string

(** [pp_value_flat] prints on a single line (for logs and error
    messages). *)
val pp_value_flat : Format.formatter -> Term.value -> unit

