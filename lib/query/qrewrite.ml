open Tml_core
open Tml_rules.Dsl

(* The algebraic query rules of section 4.2, stated in the declarative
   rule language of [Tml_rules]: an LHS pattern with metavariables, side
   conditions from the closed [Sidecond] vocabulary, and an RHS template.
   Each declaration is checked statically ([Tml_rules.Check]: scoping,
   binder escape, size discipline, no silent drops) and carries a derived
   dynamic proof obligation (the [Obligation] module of [tml_check]); the
   compiled [Rewrite.rule] exported below is [Dsl.to_rewrite] of the
   declaration, noted under the same provenance name as before.

   The side-condition walks themselves ([pure_app], [row_local]) live in
   [Tml_rules.Sidecond], the aliasing gate in [Tml_analysis.Alias]; the
   gate history (differential-fuzzer counterexamples and all) is
   documented in the per-rule docs here. *)

(* σp(σq(R)) ≡ σp∧q(R).

   CPS shape (the paper's own rendering of the rule):

     (select q R ce cont(tempRel) (select p tempRel ce k))
     --merge-select-->
     (select proc(x ce' cc')
               (q x ce' cont(b) (== b true cont() (p x ce' cc')
                                          cont() (cc' false)))
             R ce k)

   The shared exception continuation is the DSL's non-linear match: the
   second ?ce occurrence must be [equal_value] to the first.  [Used_once]
   on the temp also guarantees p and k cannot mention it (its single
   occurrence is the inner select's source argument). *)
let merge_select_rule =
  decl_rule ~name:"q.merge-select"
    ~doc:
      "σp(σq(R)) ≡ σp∧q(R): fuse two selections sharing an exception \
       continuation into one pass with a conjoined predicate."
    ~size:
      (Bounded_growth
         "wraps both predicates in a fixed-size conjunction scaffold; the \
          select pair it consumes cannot reform")
    (pa (pprim "select")
       [
         pany ~sort:Spred "q";
         pany ~sort:Srel "r";
         pany ~sort:Secont "ce";
         P_abs
           ( [ "tmp", Ident.Value ],
             pa ~bind:"inner" (pprim "select")
               [ pany ~sort:Spred "p"; P_bvar "tmp"; pany ~sort:Secont "ce"; pany ~sort:Scont_rel "k" ] );
       ])
    [ Used_once ("tmp", "inner") ]
    (ra (R_prim "select")
       [
         R_abs
           ( [
               B_fresh ("x", "x", Ident.Value);
               B_fresh ("ce'", "ce", Ident.Cont);
               B_fresh ("cc'", "cc", Ident.Cont);
             ],
             ra (R_val "q")
               [
                 R_bvar "x";
                 R_bvar "ce'";
                 R_abs
                   ( [ B_fresh ("b", "b", Ident.Value) ],
                     ra (R_prim "==")
                       [
                         R_bvar "b";
                         R_lit (Literal.Bool true);
                         R_abs ([], ra (R_val "p") [ R_bvar "x"; R_bvar "ce'"; R_bvar "cc'" ]);
                         R_abs ([], ra (R_bvar "cc'") [ R_lit (Literal.Bool false) ]);
                       ] );
               ] );
         R_val "r";
         R_val "ce";
         R_val "k";
       ])

(* πf(πg(R)) ≡ πf∘g(R) — same shape as merge-select, with function
   composition instead of conjunction. *)
let merge_project_rule =
  decl_rule ~name:"q.merge-project"
    ~doc:"πf(πg(R)) ≡ πf∘g(R): fuse two projections into one composed pass."
    ~size:
      (Bounded_growth
         "wraps both projections in a fixed-size composition scaffold; the \
          project pair it consumes cannot reform")
    (pa (pprim "project")
       [
         pany ~sort:Sproj "g";
         pany ~sort:Srel "r";
         pany ~sort:Secont "ce";
         P_abs
           ( [ "tmp", Ident.Value ],
             pa ~bind:"inner" (pprim "project")
               [ pany ~sort:Sproj "f"; P_bvar "tmp"; pany ~sort:Secont "ce"; pany ~sort:Scont_rel "k" ] );
       ])
    [ Used_once ("tmp", "inner") ]
    (ra (R_prim "project")
       [
         R_abs
           ( [
               B_fresh ("x", "x", Ident.Value);
               B_fresh ("ce'", "ce", Ident.Cont);
               B_fresh ("cc'", "cc", Ident.Cont);
             ],
             ra (R_val "g")
               [
                 R_bvar "x";
                 R_bvar "ce'";
                 R_abs
                   ( [ B_fresh ("t", "t", Ident.Value) ],
                     ra (R_val "f") [ R_bvar "t"; R_bvar "ce'"; R_bvar "cc'" ] );
               ] );
         R_val "r";
         R_val "ce";
         R_val "k";
       ])

(* σtrue(R) ≡ R {e aliases} the would-be copy to R itself, which is only
   sound when the temp is consumed read-only and no relation can be
   mutated while it is live — an [insert] through either name would be
   visible through the other (found by the differential fuzzer:
   (select true R cont(s) (insert s t ...)) must insert into a copy).
   Nor may the alias leave the region: a closure capturing it and passed
   out through the return continuation would read the base relation after
   later inserts, where the copy is a snapshot.  [Alias_consumed_ok] is the
   flow-based escape analysis [Tml_analysis.Alias.select_alias_ok]; it is
   a soundness precondition, so it applies whatever
   [Tml_analysis.Bridge.enabled] says. *)
let constant_select_true_rule =
  decl_rule ~name:"q.constant-select" ~fact:"alias-safe source"
    ~doc:
      "σtrue(R) ≡ R when the consumer is alias-safe: drop the copying \
       select and pass the source relation through."
    ~drops:
      [
        "ce", "the eliminated select cannot raise: its predicate is the constant-true jump";
      ]
    ~size:Decreasing
    (pa (pprim "select")
       [
         P_abs
           ( [ "px", Ident.Value; "pce", Ident.Cont; "pcc", Ident.Cont ],
             pa (P_bvar "pcc") [ P_lit (Literal.Bool true) ] );
         pany ~sort:Srel "r";
         pany ~sort:Secont "ce";
         P_abs ([ "tmp", Ident.Value ], PA_any ("body", Aconsume_rel "tmp"));
       ])
    [ Alias_consumed_ok ("tmp", "body") ]
    (ra (R_abs ([ B_ref "tmp" ], RA_splice "body")) [ R_val "r" ])

(* σfalse(R) ≡ ∅.  Split from the σtrue direction: a declarative rule is
   one pattern, one template — the two constant branches are separate
   declarations (both were one closure before, reported under one name). *)
let constant_select_false_rule =
  decl_rule ~name:"q.constant-select-empty"
    ~doc:"σfalse(R) ≡ ∅: a constantly-false selection builds the empty relation."
    ~drops:
      [
        "r", "σfalse keeps no row whatever the source holds";
        "ce", "the eliminated select cannot raise: its predicate is the constant-false jump";
      ]
    ~size:Decreasing
    (pa (pprim "select")
       [
         P_abs
           ( [ "px", Ident.Value; "pce", Ident.Cont; "pcc", Ident.Cont ],
             pa (P_bvar "pcc") [ P_lit (Literal.Bool false) ] );
         pany ~sort:Srel "r";
         pany ~sort:Secont "ce";
         pany ~sort:Scont_rel "k";
       ])
    []
    (ra (R_prim "relation") [ R_val "k" ])

(* ∃x∈R: p ≡ p ∧ R≠∅ when |p|_x = 0 — the paper's showcase for scoping
   preconditions on query rules.  Two guards beyond the paper's: the
   rewritten form evaluates the predicate once even when R is empty, so
   the predicate body must be pure ([Pure_app]) {e and} must not jump to
   its exception continuation ([Not_occurs] on pce — a pure body can
   still raise through pce, observable exactly on the empty relation). *)
let trivial_exists_rule =
  decl_rule ~name:"q.trivial-exists"
    ~doc:
      "∃x∈R: p ≡ p ∧ R≠∅ when the row variable does not occur in the \
       pure, non-raising predicate body."
    ~size:
      (Bounded_growth
         "adds a fixed-size emptiness/conjunction scaffold; the exists node \
          it consumes cannot reform")
    (pa (pprim "exists")
       [
         P_abs
           ( [ "px", Ident.Value; "pce", Ident.Cont; "pcc", Ident.Cont ],
             PA_any ("pbody", Apred_body) );
         pany ~sort:Srel "r";
         pany ~sort:Secont "ce";
         pany ~sort:Scont_bool "k";
       ])
    [ Not_occurs ("px", "pbody"); Not_occurs ("pce", "pbody"); Pure_app "pbody" ]
    (ra
       (R_abs ([ B_ref "px"; B_ref "pce"; B_ref "pcc" ], RA_splice "pbody"))
       [
         R_lit Literal.Unit;
         R_val "ce";
         R_abs
           ( [ B_fresh ("bp", "bp", Ident.Value) ],
             ra (R_prim "empty")
               [
                 R_val "r";
                 R_abs
                   ( [ B_fresh ("be", "be", Ident.Value) ],
                     ra (R_prim "not")
                       [
                         R_bvar "be";
                         R_abs
                           ( [ B_fresh ("ne", "ne", Ident.Value) ],
                             ra (R_prim "and") [ R_bvar "bp"; R_bvar "ne"; R_val "k" ] );
                       ] );
               ] );
       ])

(* σp(R ∪ S) ≡ σp(R) ∪ σp(S): selection distributes over union, avoiding
   materializing the concatenation first.  The predicate and the exception
   continuation are duplicated across the arms — the second copies are
   α-freshened (the unique-binding rule) and both carry size bounds, which
   is what the checker's duplication discipline demands. *)
let select_union_limit = 60

let select_union_rule =
  decl_rule ~name:"q.select-union"
    ~doc:
      "σp(R ∪ S) ≡ σp(R) ∪ σp(S): distribute a selection over a union, \
       duplicating the (size-gated) predicate."
    ~dups:[ "p"; "ce" ]
    ~size:
      (Bounded_growth
         "duplicates the predicate and exception continuation, both gated \
          by Size_le bounds; the union/select pair it consumes cannot reform")
    (pa (pprim "union")
       [
         pany ~sort:Srel "r1";
         pany ~sort:Srel "r2";
         P_abs
           ( [ "tmp", Ident.Value ],
             pa ~bind:"inner" (pprim "select")
               [ pany ~sort:Spred "p"; P_bvar "tmp"; pany ~sort:Secont "ce"; pany ~sort:Scont_rel "k" ] );
       ])
    [
      Used_once ("tmp", "inner");
      Size_le ("p", select_union_limit);
      Size_le ("ce", select_union_limit);
    ]
    (ra (R_prim "select")
       [
         R_val "p";
         R_val "r1";
         R_val "ce";
         R_abs
           ( [ B_fresh ("ra", "ra", Ident.Value) ],
             ra (R_prim "select")
               [
                 R_fresh_copy "p";
                 R_val "r2";
                 R_fresh_copy "ce";
                 R_abs
                   ( [ B_fresh ("rb", "rb", Ident.Value) ],
                     ra (R_prim "union") [ R_bvar "ra"; R_bvar "rb"; R_val "k" ] );
               ] );
       ])

(* δ(δ(R)) ≡ δ(R) *)
let distinct_distinct_rule =
  decl_rule ~name:"q.distinct-distinct"
    ~doc:"δ(δ(R)) ≡ δ(R): duplicate elimination is idempotent."
    ~size:Decreasing
    (pa (pprim "distinct")
       [
         pany ~sort:Srel "r";
         P_abs
           ( [ "tmp", Ident.Value ],
             pa ~bind:"inner" (pprim "distinct") [ P_bvar "tmp"; pany ~sort:Scont_rel "k" ] );
       ])
    [ Used_once ("tmp", "inner") ]
    (ra (R_prim "distinct") [ R_val "r"; R_val "k" ])

(* δ(σp(R)) ≡ σp(δ(R)) — oriented to select first: the (quadratic)
   duplicate elimination then runs on the smaller relation.  Requires a
   row-local predicate ([Sidecond.row_local]): an identity-observing
   predicate could distinguish content-equal duplicate rows. *)
let select_before_distinct_rule =
  decl_rule ~name:"q.select-before-distinct"
    ~doc:
      "δ(σp(R)) ≡ σp(δ(R)), oriented to run the quadratic duplicate \
       elimination after the row-local selection shrank the relation."
    ~size:(Neutral "pure reordering: both sides rebuild the same two nodes")
    (pa (pprim "distinct")
       [
         pany ~sort:Srel "r";
         P_abs
           ( [ "tmp", Ident.Value ],
             pa ~bind:"inner" (pprim "select")
               [
                 P_abs
                   ( [ "px", Ident.Value; "pce", Ident.Cont; "pcc", Ident.Cont ],
                     PA_any ("pbody", Apred_body) );
                 P_bvar "tmp";
                 pany ~sort:Secont "ce";
                 pany ~sort:Scont_rel "k";
               ] );
       ])
    [ Used_once ("tmp", "inner"); Row_local ("px", "pbody") ]
    (ra (R_prim "select")
       [
         R_abs ([ B_ref "px"; B_ref "pce"; B_ref "pcc" ], RA_splice "pbody");
         R_val "r";
         R_val "ce";
         R_abs
           ( [ B_fresh ("s", "s", Ident.Value) ],
             ra (R_prim "distinct") [ R_bvar "s"; R_val "k" ] );
       ])

(* ------------------------------------------------------------------ *)
(* Exports                                                              *)
(* ------------------------------------------------------------------ *)

let declarative_rules =
  [
    merge_select_rule;
    merge_project_rule;
    constant_select_true_rule;
    constant_select_false_rule;
    trivial_exists_rule;
    select_union_rule;
    distinct_distinct_rule;
    select_before_distinct_rule;
  ]

(* The compiled forms, kept under their historical export names (the unit
   tests drive the rules one at a time). *)
let merge_select = to_rewrite merge_select_rule

(* Both constant branches under one export, as before the DSL port. *)
let constant_select =
  let t = to_rewrite constant_select_true_rule in
  let f = to_rewrite constant_select_false_rule in
  fun a -> match t a with Some _ as r -> r | None -> f a


(* Recognize λ(x ce cc). x.[i] == v — the indexable equality predicate
   (used by the [index_select] closure rule in [Qopt]).  The key is a
   literal or a variable bound outside the predicate, so it is in scope
   at the selection and can become the probe's argument. *)
let field_eq_predicate (pred : Term.value) =
  let open Term in
  match pred with
  | Abs { params = [ x; ce; cc ]; body } -> (
    match body with
    | {
     func = Prim "[]";
     args = [ Var x'; Lit (Literal.Int field); Abs { params = [ t ]; body = eqbody } ];
    }
      when Ident.equal x x' -> (
      match eqbody with
      | {
       func = Prim "==";
       args =
         [
           Var t';
           ((Lit _ | Var _) as key);
           Abs { params = []; body = { func = Var cc1; args = [ Lit (Literal.Bool true) ] } };
           Abs { params = []; body = { func = Var cc2; args = [ Lit (Literal.Bool false) ] } };
         ];
      }
        when Ident.equal t t' && Ident.equal cc cc1 && Ident.equal cc cc2
             && (match key with
                | Var v -> not (List.exists (Ident.equal v) [ x; ce; cc; t ])
                | _ -> true) ->
        Some (field, key)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Recognize λ(x y ce cc). x.[f1] == y.[f2] — the equi-join predicate
   (used by the [index_join] and [join_order] cost rules in [Qopt]). *)
let join_field_eq_predicate (pred : Term.value) =
  let open Term in
  match pred with
  | Abs { params = [ x; y; _ce; cc ]; body } -> (
    match body with
    | {
     func = Prim "[]";
     args = [ Var x'; Lit (Literal.Int f1); Abs { params = [ a ]; body = body1 } ];
    }
      when Ident.equal x x' -> (
      match body1 with
      | {
       func = Prim "[]";
       args = [ Var y'; Lit (Literal.Int f2); Abs { params = [ b ]; body = body2 } ];
      }
        when Ident.equal y y' -> (
        match body2 with
        | {
         func = Prim "==";
         args =
           [
             Var a';
             Var b';
             Abs { params = []; body = { func = Var cc1; args = [ Lit (Literal.Bool true) ] } };
             Abs
               { params = []; body = { func = Var cc2; args = [ Lit (Literal.Bool false) ] } };
           ];
        }
          when Ident.equal a a' && Ident.equal b b' && Ident.equal cc cc1 && Ident.equal cc cc2
          ->
          Some (f1, f2)
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Build the predicate [join_field_eq_predicate] recognizes, with fresh
   binders — the join-order rule synthesizes the reassociated
   predicates from the matched field positions. *)
let mk_join_field_eq ~f1 ~f2 =
  let open Term in
  let x = Ident.fresh "jx" and y = Ident.fresh "jy" in
  proc [ x; y ] (fun ~ce:_ ~cc ->
      let a = Ident.fresh "ja" and b = Ident.fresh "jb" in
      app (prim "[]")
        [
          var x;
          int f1;
          cont [ a ]
            (app (prim "[]")
               [
                 var y;
                 int f2;
                 cont [ b ]
                   (app (prim "==")
                      [
                        var a;
                        var b;
                        cont [] (app (var cc) [ bool_ true ]);
                        cont [] (app (var cc) [ bool_ false ]);
                      ]);
               ]);
        ])

let algebraic_rules = List.map to_rewrite declarative_rules
