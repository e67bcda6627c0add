(** Random generation of well-formed, terminating TML programs for the
    translation-validation harness, with an integrated shrinker.

    Compared with {!Tml_core.Gen} (which the legacy property suite uses),
    this generator covers the full registered primitive surface the
    optimizer and the two engines must agree on: integer and bit
    arithmetic, IEEE real arithmetic, boolean operations, comparisons and
    case analysis, β-redexes, higher-order helpers, bounded [Y] loops,
    mutable arrays and immutable vectors (with occasional out-of-bounds
    accesses), observable output ([ccall print_int]), exception-handler
    regions ([pushHandler]/[popHandler]/[raise]) and escapes through the
    exception continuation.  A second generator produces query pipelines
    (σ, π, ⋈, aggregates, index creation and selection, inserts, stored
    triggers) over small generated relations.

    All generated programs terminate: loops count down from small
    literals, relations are small, and every recursive helper gets a
    strictly smaller budget.

    The shrinker works on the terms themselves: it replaces application
    nodes by the bodies of their continuation arguments (cutting whole
    computations), contracts β-redexes ignoring argument values, and
    shrinks literals — every candidate is filtered through
    {!Tml_core.Wf.check_value} and a strictly decreasing size measure, so
    minimization always terminates on a well-formed reproducer. *)

open Tml_core

(** {1 Full programs} *)

(** A generated program: a closed [proc(a b ce cc)] plus its two integer
    inputs.  [seed] regenerates it ([case_of_seed]). *)
type case = {
  seed : int;
  proc : Term.value;
  a : int;
  b : int;
}

(** [case_of_seed ?min_size ?max_size seed] — deterministic: the same seed
    always yields the same case (modulo identifier stamps, which carry no
    meaning). *)
val case_of_seed : ?min_size:int -> ?max_size:int -> int -> case

(** {1 Query pipelines} *)

(** A generated query program: a closed [proc(r ce cc)] over a relation
    argument, plus the rows (width 3, small non-negative ints) of the
    relation to run it against. *)
type query_case = {
  qseed : int;
  rows : int list list;
  qproc : Term.value;
}

val query_case_of_seed : ?min_size:int -> ?max_size:int -> int -> query_case

(** [base_index c] — the field the relation of [c] is indexed on before
    the program runs: field 0 for even seeds, none for odd ones.  With an
    index in place when the persistent engines optimize, the generated
    point selections (some keyed by values bound at run time) become
    index probes there, while the other engines scan. *)
val base_index : query_case -> int option

(** {2 Building blocks}

    The individual query-operand generators, exposed so the per-rule proof
    obligations ({!Obligation}) can instantiate a rule's metavariables with
    the same operand distribution the differential fuzzer explores:
    predicates that accept, reject, compare fields or raise through the
    exception continuation; projection and field-extraction functions. *)

(** [gen_pred rng ~width] — a generated predicate [proc(x ce cc)] over a
    row of [width] integer fields; jumps [cc true]/[cc false], or
    occasionally raises through [ce]. *)
val gen_pred : Random.State.t -> width:int -> Term.value

(** [gen_project_fn rng ~width] — a generated projection [proc(x ce cc)]
    passing a (possibly shorter or reordered) row to [cc]. *)
val gen_project_fn : Random.State.t -> width:int -> Term.value

(** {1 Shrinking} *)

(** [measure v] — the strictly decreasing well-order the shrinker walks
    down: tree size, then total literal magnitude. *)
val measure : Term.value -> int * int

(** [shrink_value ~allowed_free v] — well-formed candidates strictly
    smaller than [v] (by {!measure}), whose free identifiers stay within
    [allowed_free].  Ordered most-aggressive first. *)
val shrink_value : allowed_free:Ident.Set.t -> Term.value -> Term.value Seq.t

val shrink_case : case -> case Seq.t
val shrink_query_case : query_case -> query_case Seq.t

(** [minimize ~shrink ~fails x] — greedy minimization: repeatedly adopt the
    first shrink candidate on which [fails] still holds, until none does
    (or [max_steps] adoptions).  [x] itself must fail. *)
val minimize : shrink:('a -> 'a Seq.t) -> fails:('a -> bool) -> ?max_steps:int -> 'a -> 'a
