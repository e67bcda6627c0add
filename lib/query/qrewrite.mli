(** Algebraic query optimization as TML rewrite rules (section 4.2).

    "For a given set of primitive procedures, algebraic and
    implementation-oriented query optimization rules can be expressed quite
    naturally in CPS ... In particular, scoping restrictions which limit the
    applicability of certain rewrite rules are also directly expressible."

    All rules here are plain {!Tml_core.Rewrite.rule}s: they plug into the
    same reduction engine as the core λ-calculus rules, which is exactly the
    integration of program and query optimization that figure 4 describes.

    The rules reason about relations as multisets of rows; the ones whose
    algebraic reading is only valid for read-only consumers (σtrue(R) ≡ R,
    which aliases instead of copying) carry explicit syntactic
    preconditions restricting them to contexts where the aliasing is
    unobservable.

    Since the DSL port, every rule here is {e declared} in the language of
    {!Tml_rules.Dsl} — pattern, side conditions from the closed vocabulary,
    RHS template — and the [Rewrite.rule] values below are the compiled
    forms.  {!declarative_rules} exposes the declarations themselves for
    the static checker, the indexed dispatcher and the derived proof
    obligations. *)

open Tml_core

(** The rule declarations, in application order: merge-select,
    merge-project, the two constant-select branches, trivial-exists,
    select-union, distinct-distinct, select-before-distinct.  Every entry
    passes [Tml_rules.Check.check] and its derived obligation. *)
val declarative_rules : Tml_rules.Dsl.rule list

(** σp(σq(R)) ≡ σp∧q(R) — the [merge-select] rule of the paper.  Requires
    both selections to share the same exception continuation and the
    intermediate relation to be used exactly once. *)
val merge_select : Rewrite.rule

(** σtrue(R) ≡ R and σfalse(R) ≡ ∅ for constant predicates.  The σtrue
    direction aliases the result to [R] instead of copying, so it only
    fires when the continuation consumes the relation read-only and cannot
    mutate the store or call unknown procedures while the alias is live
    (the differential fuzzer caught an [insert] through the alias mutating
    the base relation), and neither the relation nor a closure capturing
    it can leave the region.  The gate is the flow-based escape analysis
    [Tml_analysis.Alias.select_alias_ok], which also accepts aliases that
    reach readers only through local procedure bindings.  It is a
    soundness precondition, so [Tml_analysis.Bridge.enabled] does not
    switch it. *)
val constant_select : Rewrite.rule

(** [field_eq_predicate pred] recognizes a predicate abstraction of the
    shape λ(x ce cc). x.[i] == v, returning [(i, v)] — the shape the
    [index_select] rule (in {!Qopt}) accelerates.  The key [v] is a
    literal, or a variable free in the predicate (bound at run time by
    the enclosing code); a key naming the row, either continuation or
    the field temporary is rejected. *)
val field_eq_predicate : Term.value -> (int * Term.value) option

(** [join_field_eq_predicate pred] recognizes the equi-join predicate
    shape [λ(x y ce cc). x.[f1] == y.[f2]] and returns [(f1, f2)]. *)
val join_field_eq_predicate : Term.value -> (int * int) option

(** [mk_join_field_eq ~f1 ~f2] builds (with fresh binders) the predicate
    that [join_field_eq_predicate] recognizes. *)
val mk_join_field_eq : f1:int -> f2:int -> Term.value

(** All static (store-independent) rules, in application order — the
    compiled forms of {!declarative_rules}. *)
val algebraic_rules : Rewrite.rule list
