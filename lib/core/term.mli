(** Abstract syntax of TML (figure 1 of the paper).

    Six node types are sufficient: literal constants, variables, primitive
    procedures, λ-abstractions, applications — and parameter lists.  Values
    are literals, variables, primitives or abstractions; the body of an
    abstraction must be an application; actual parameters of an application
    must be values (never nested applications), which is what makes the
    rewrite rules of section 3 sound in the presence of side effects. *)

type value =
  | Lit of Literal.t
  | Var of Ident.t
  | Prim of string  (** the name of a primitive procedure, e.g. ["+"] *)
  | Abs of abs

and abs = {
  params : Ident.t list;
  body : app;
}

and app = {
  func : value;
  args : value list;
}

(** {1 Constructors} *)

val lit : Literal.t -> value
val unit_ : value
val bool_ : bool -> value
val int : int -> value
val char : char -> value
val real : float -> value
val str : string -> value
val oid : Oid.t -> value
val var : Ident.t -> value
val prim : string -> value
val abs : Ident.t list -> app -> value
val app : value -> value list -> app

(** [cont params body] builds a continuation abstraction; it asserts that no
    parameter is a continuation variable (the syntactic property that
    distinguishes [cont] from [proc] abstractions, section 2.2). *)
val cont : Ident.t list -> app -> value

(** [proc values body] builds a procedure abstraction taking [values] plus
    two fresh continuation parameters which are passed to [body]; the
    exception continuation comes first, the normal continuation last, as in
    the paper's listings. *)
val proc : Ident.t list -> (ce:Ident.t -> cc:Ident.t -> app) -> value

(** {1 Classification} *)

(** [abs_kind a] is [`Cont] if no parameter of [a] is a continuation variable
    and [`Proc] otherwise (section 2.2, syntactic equivalences). *)
val abs_kind : abs -> [ `Cont | `Proc ]

val is_abs : value -> bool
val is_trivial : value -> bool
(** [is_trivial v] is true for literals, variables and primitives — the
    values the [subst] rule may duplicate freely. *)

(** [map_sharing f l] maps [f] over [l] but returns [l] itself (physically)
    when every element mapped to itself.  Rebuilding passes use it so
    unchanged subtrees stay physically shared, which is what makes the
    reduction and expansion passes' "did this change?" checks O(1). *)
val map_sharing : ('a -> 'a) -> 'a list -> 'a list

(** {1 Measures} *)

(** [size_app a] (resp. [size_value v]) is the number of abstract syntax
    nodes.  Every reduction rule strictly decreases this measure, which is
    the paper's termination argument for the reduction pass. *)
val size_app : app -> int

val size_value : value -> int

(** {1 Queries} *)

(** [free_vars_app a] is the set of identifiers occurring free in [a]. *)
val free_vars_app : app -> Ident.Set.t

val free_vars_value : value -> Ident.Set.t

(** [prims_used a] is the set of primitive names appearing in [a]. *)
val prims_used : app -> string list

(** [exists_app p a] tests whether some sub-application of [a] (including [a]
    itself) satisfies [p]. *)
val exists_app : (app -> bool) -> app -> bool

(** [iter_apps f a] applies [f] to every sub-application of [a], outermost
    first. *)
val iter_apps : (app -> unit) -> app -> unit

(** {1 Equality} *)

(** Structural equality (stamps included). *)
val equal_value : value -> value -> bool

val equal_app : app -> app -> bool

(** α-equivalence: equality up to renaming of bound identifiers (sorts and
    binding structure must agree; free identifiers must be identical). *)
val alpha_equal_value : value -> value -> bool

val alpha_equal_app : app -> app -> bool

(** Like {!alpha_equal_app}, but free identifiers are compared by base name
    and sort instead of by stamp — for comparing a term against an
    independently parsed expectation (tests, documentation examples). *)
val alpha_equal_by_name_value : value -> value -> bool

val alpha_equal_by_name_app : app -> app -> bool
