(** A small declarative language for rewrite rules (ROADMAP item 3,
    following "An Extensible and Verifiable Language for Query Rewrite
    Rules"): LHS/RHS term patterns with metavariables and side conditions
    drawn from a closed vocabulary ({!cond}).

    From one declaration three artifacts derive automatically:

    - the compiled {!Tml_core.Rewrite.rule} ({!to_rewrite}), registered
      through [Rewrite.note_rule] so provenance and metrics keep working;
    - a static verification verdict ({!Check}): well-scoped metavariables,
      RHS ⊆ LHS binding, a symbolic size-delta discipline and a
      precondition-sufficiency lint;
    - a dynamic proof obligation (the [Obligation] module of [tml_check]):
      semantics preservation under the oracle battery, instantiated at
      generated redexes satisfying the preconditions — the sorts attached
      to metavariables tell the generator what to put there.

    Rules that genuinely need runtime store access keep a closure escape
    hatch ({!closure_rule}); they still declare their head symbols so the
    {!Index} dispatch covers them, and their verification is the oracle
    battery itself. *)

open Tml_core

type mvar = string

(** Generation sorts for value metavariables (ignored by matching). *)
type vsort =
  | Sval
  | Srel
  | Spred
  | Sproj
  | Scont_rel
  | Scont_bool
  | Secont

(** Generation sorts for app metavariables (ignored by matching). *)
type asort =
  | Agen
  | Apred_body
  | Aconsume_rel of mvar

(** Value patterns.  [P_any] binds (non-linearly: a second occurrence
    requires [Term.equal_value]); [P_bvar] matches a variable occurrence of
    an already-bound binder metavariable; [P_abs] binds the parameters of a
    matched abstraction. *)
type vpat =
  | P_any of mvar * vsort
  | P_lit of Literal.t
  | P_prim of string
  | P_bvar of mvar
  | P_abs of (mvar * Ident.sort) list * apat

(** Application patterns.  [PA_any] binds the whole node; [PA_node]
    matches structurally and may additionally bind the node ([pa_bind])
    for side conditions. *)
and apat =
  | PA_any of mvar * asort
  | PA_node of {
      pa_bind : mvar option;
      pa_func : vpat;
      pa_args : vpat list;
    }

(** The closed side-condition vocabulary. *)
type cond =
  | Used_once of mvar * mvar
  | Not_occurs of mvar * mvar
  | Alias_consumed_ok of mvar * mvar
  | Pure_app of mvar
  | Row_local of mvar * mvar
  | Size_le of mvar * int

(** RHS abstraction binders: reuse an LHS binder whose subtree the RHS
    rebuilds, or mint a fresh identifier at instantiation time. *)
type rbinder =
  | B_ref of mvar
  | B_fresh of mvar * string * Ident.sort

(** RHS templates.  [R_fresh_copy] is the duplicating occurrence of a
    matched value (α-freshened on instantiation, as the unique-binding rule
    requires); [RA_splice] re-inserts a bound application node verbatim. *)
type rv =
  | R_val of mvar
  | R_fresh_copy of mvar
  | R_bvar of mvar
  | R_lit of Literal.t
  | R_prim of string
  | R_abs of rbinder list * ra

and ra =
  | RA_app of rv * rv list
  | RA_splice of mvar

(** The declared size behaviour, verified symbolically by {!Check}:
    [Decreasing] rules strictly shrink the tree; [Neutral] and
    [Bounded_growth] carry the author's termination justification. *)
type size_class =
  | Decreasing
  | Neutral of string
  | Bounded_growth of string

type decl = {
  lhs : apat;
  conds : cond list;
  rhs : ra;
  size : size_class;
  drops : (mvar * string) list;
      (** LHS metavariables the RHS intentionally discards, with the
          author's justification — the precondition-sufficiency lint
          rejects silent drops *)
  dups : mvar list;
      (** metavariables the RHS intentionally duplicates; each must carry
          a [Size_le] bound *)
}

(** Dispatch heads: what the root of a matching redex can look like. *)
type head =
  | Head_prim of string
  | Head_oid
  | Head_lit
  | Head_abs
  | Head_var
  | Head_any

type impl =
  | Decl of decl
  | Closure of Rewrite.rule

type rule = {
  name : string;  (** the provenance name ([Rewrite.note_rule]) *)
  fact : string;  (** static enabling fact recorded with each fire *)
  doc : string;
  heads : head list;
  impl : impl;
}

val pp_head : Format.formatter -> head -> unit

(** {1 Matching and instantiation} (exposed for the checker, the
    obligation harness and the property tests) *)

module SM : Map.S with type key = string

type env = {
  vals : Term.value SM.t;
  apps : Term.app SM.t;
  binders : Ident.t SM.t;
}

val empty_env : env

(** {1 Compilation} *)

(** [compile_decl ~name ~fact d] — the executable rule: match, check the
    side conditions, instantiate, and note [name]/[fact] for provenance. *)
val compile_decl : name:string -> fact:string -> decl -> Rewrite.rule

(** [to_rewrite r] — the compiled form of any rule (closures pass
    through; they note their own name). *)
val to_rewrite : rule -> Rewrite.rule

(** {1 Constructors and pattern shorthands} *)

val decl_rule :
  name:string ->
  ?fact:string ->
  doc:string ->
  ?drops:(mvar * string) list ->
  ?dups:mvar list ->
  size:size_class ->
  apat ->
  cond list ->
  ra ->
  rule

val closure_rule :
  name:string -> ?fact:string -> doc:string -> heads:head list -> Rewrite.rule -> rule

val pa : ?bind:mvar -> vpat -> vpat list -> apat
val pprim : string -> vpat
val pany : ?sort:vsort -> mvar -> vpat
val ra : rv -> rv list -> ra
