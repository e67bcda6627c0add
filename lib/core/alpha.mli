(** α-conversion.

    The TML code generator performs α-conversion so that every identifier is
    bound at most once in the whole tree (the unique binding rule).  The
    expansion pass must also {e freshen} a copy of an abstraction before
    inserting it at an additional call site, otherwise the rule would
    introduce duplicate binders. *)

(** [freshen_value v] returns a copy of [v] in which every {e bound}
    identifier has been replaced by a fresh one (same name and sort, new
    stamp), with all its uses renamed consistently.  Free identifiers are
    untouched. *)
val freshen_value : Term.value -> Term.value

(** [convert_app a] freshens [a] as {!freshen_value} freshens a value; the
    name records that it also {e repairs} terms violating the unique binding rule (e.g. decoded from an
    untrusted source): inner binders shadow outer ones, so the result always
    satisfies the rule.  Used by the PTML decoder. *)
val convert_app : Term.app -> Term.app
