(* Unit tests for the TML core: identifiers, literals, terms, occurrence
   counting, substitution, α-conversion, printing/parsing, well-formedness. *)

open Tml_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Ident                                                                *)
(* ------------------------------------------------------------------ *)

let test_ident_fresh () =
  let a = Ident.fresh "x" in
  let b = Ident.fresh "x" in
  check tbool "same name, different stamps" false (Ident.equal a b);
  check tbool "self equality" true (Ident.equal a a);
  check tbool "value sort by default" false (Ident.is_cont a);
  let c = Ident.fresh ~sort:Ident.Cont "k" in
  check tbool "cont sort" true (Ident.is_cont c)

let test_ident_refresh () =
  let a = Ident.fresh ~sort:Ident.Cont "k" in
  let b = Ident.refresh a in
  check tbool "refresh differs" false (Ident.equal a b);
  check tbool "refresh keeps sort" true (Ident.is_cont b);
  check tstring "refresh keeps name" a.Ident.name b.Ident.name

let test_ident_make_bumps_counter () =
  let big = Ident.make ~name:"imported" ~stamp:1_000_000 ~sort:Ident.Value in
  let next = Ident.fresh "after" in
  check tbool "fresh after make does not collide" true (next.Ident.stamp > big.Ident.stamp)

let test_ident_collections () =
  let a = Ident.fresh "a" and b = Ident.fresh "b" in
  let set = Ident.Set.of_list [ a; b; a ] in
  check tint "set deduplicates" 2 (Ident.Set.cardinal set);
  let map = Ident.Map.(empty |> add a 1 |> add b 2 |> add a 3) in
  check tint "map replaces" 3 (Ident.Map.find a map);
  check tint "map cardinal" 2 (Ident.Map.cardinal map)

(* ------------------------------------------------------------------ *)
(* Literal                                                              *)
(* ------------------------------------------------------------------ *)

let test_literal_equal () =
  check tbool "int" true (Literal.equal (Literal.Int 3) (Literal.Int 3));
  check tbool "int/char differ" false (Literal.equal (Literal.Int 97) (Literal.Char 'a'));
  check tbool "nan reflexive" true (Literal.equal (Literal.Real Float.nan) (Literal.Real Float.nan));
  check tbool "negative zero distinguished" false
    (Literal.equal (Literal.Real 0.0) (Literal.Real (-0.0)));
  check tbool "oid" true
    (Literal.equal (Literal.Oid (Oid.of_int 5)) (Literal.Oid (Oid.of_int 5)))

let test_literal_compare_total () =
  let samples =
    [
      Literal.Unit; Literal.Bool false; Literal.Bool true; Literal.Int (-1); Literal.Int 7;
      Literal.Char 'z'; Literal.Real 1.5; Literal.Str "s"; Literal.Oid (Oid.of_int 2);
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Literal.compare a b and ba = Literal.compare b a in
          check tbool "antisymmetric" true ((ab >= 0 && ba <= 0) || (ab <= 0 && ba >= 0));
          if Literal.equal a b then check tint "equal means zero" 0 ab)
        samples)
    samples

(* ------------------------------------------------------------------ *)
(* Term                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_term () =
  (* proc(x ce cc) (+ x 1 ce cont(t) (cc t)) *)
  Sexp.parse_value "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))"

let test_term_size () =
  let v = sample_term () in
  (* proc node: 1 + 3 params + body(10);
     body: 1 + prim(1) + x(1) + 1(1) + ce(1) + cont-abs(5) *)
  check tint "size" 14 (Term.size_value v);
  check tint "lit size" 1 (Term.size_value (Term.int 3))

let test_term_free_vars () =
  let v = sample_term () in
  check tint "closed" 0 (Ident.Set.cardinal (Term.free_vars_value v));
  let a = Sexp.parse_app "(f x ce! cc!)" in
  check tint "four free" 4 (Ident.Set.cardinal (Term.free_vars_app a))

let test_term_kind () =
  match sample_term () with
  | Term.Abs a ->
    check tbool "proc kind" true (Term.abs_kind a = `Proc);
    (match a.Term.body.Term.args with
    | [ _; _; _; Term.Abs k ] -> check tbool "cont kind" true (Term.abs_kind k = `Cont)
    | _ -> Alcotest.fail "unexpected shape")
  | _ -> Alcotest.fail "expected an abstraction"

let test_alpha_equal () =
  let v1 = Sexp.parse_value "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))" in
  let v2 = Sexp.parse_value "proc(y e! k!) (+ y 1 e! cont(u) (k! u))" in
  check tbool "alpha equal" true (Term.alpha_equal_value v1 v2);
  check tbool "structurally different" false (Term.equal_value v1 v2);
  let v3 = Sexp.parse_value "proc(y e! k!) (+ y 2 e! cont(u) (k! u))" in
  check tbool "different constant" false (Term.alpha_equal_value v1 v3)

let test_prims_used () =
  let a = Sexp.parse_app "(+ 1 2 ce! cont(t) (* t t ce2! cont(u) (k! u)))" in
  check Alcotest.(list string) "prims" [ "*"; "+" ] (Term.prims_used a)

(* a structurally equal but physically distinct copy: same identifiers and
   literals, fresh interior nodes (a print/parse round trip would not do —
   [Sexp.parse_value] mints fresh stamps) *)
let rec copy_value v =
  match v with
  | Term.Abs a -> Term.abs a.Term.params (copy_app a.Term.body)
  | Term.Lit _ | Term.Var _ | Term.Prim _ -> v

and copy_app a = Term.app (copy_value a.Term.func) (List.map copy_value a.Term.args)

(* structural equality compares identifiers by stamp, never by node
   identity: a distinct copy is equal, a reparse is only α-equal *)
let test_equal_distinct_copies () =
  for seed = 0 to 40 do
    let v = Gen.proc2 (Random.State.make [| seed |]) ~size:(15 + seed) in
    let c = copy_value v in
    check tbool "copy is physically distinct" true (c != v);
    check tbool "copy is structurally equal" true (Term.equal_value v c);
    check tbool "copy is alpha equal" true (Term.alpha_equal_value v c);
    let r = Sexp.parse_value (Sexp.print_value v) in
    check tbool "reparse is alpha equal" true (Term.alpha_equal_value v r);
    check tbool "reparse has fresh stamps" false (Term.equal_value v r);
    let w = Gen.proc2 (Random.State.make [| seed + 1000 |]) ~size:20 in
    check tbool "equality is symmetric" (Term.equal_value v w) (Term.equal_value w v);
    check tbool "alpha equality is symmetric" (Term.alpha_equal_value v w)
      (Term.alpha_equal_value w v)
  done

(* ------------------------------------------------------------------ *)
(* Occurs — the |E|_v function                                          *)
(* ------------------------------------------------------------------ *)

let test_occurs_basic () =
  let x = Ident.fresh "x" in
  let y = Ident.fresh "y" in
  check tint "|v|_v = 1" 1 (Occurs.count_value x (Term.var x));
  check tint "|v'|_v = 0" 0 (Occurs.count_value x (Term.var y));
  check tint "|lit|_v = 0" 0 (Occurs.count_value x (Term.int 3));
  check tint "|prim|_v = 0" 0 (Occurs.count_value x (Term.prim "+"));
  let app = Term.app (Term.var x) [ Term.var x; Term.var y; Term.var x ] in
  check tint "application sums" 3 (Occurs.count_app x app);
  let abs = Term.abs [ y ] app in
  check tint "abstraction counts body" 3 (Occurs.count_value x abs)

let test_occurs_all () =
  let a = Sexp.parse_app "(f x x y ce! cont(t) (g t t t ce! cc!))" in
  let counts = Occurs.count_all_app a in
  let by_name name =
    Ident.Tbl.fold
      (fun id n acc -> if id.Ident.name = name then n + acc else acc)
      counts 0
  in
  check tint "x twice" 2 (by_name "x");
  check tint "y once" 1 (by_name "y");
  check tint "t three times" 3 (by_name "t");
  check tint "ce twice" 2 (by_name "ce")

(* the three walkers answer the same question three ways: on a closed,
   alphatized term a parameter occurs in the body exactly when it is
   counted there and exactly when it is free there *)
let test_occurs_agrees_with_free_vars () =
  for seed = 0 to 40 do
    let v = Gen.proc2 (Random.State.make [| seed; 7 |]) ~size:(10 + (3 * seed)) in
    check tbool "generated term is closed" true (Ident.Set.is_empty (Term.free_vars_value v));
    match v with
    | Term.Abs a ->
      let free = Term.free_vars_app a.Term.body in
      List.iter
        (fun id ->
          let n = Occurs.count_app id a.Term.body in
          check tbool "occurs iff counted" (n > 0) (Occurs.occurs_app id a.Term.body);
          check tbool "free in the body iff counted" (n > 0) (Ident.Set.mem id free))
        a.Term.params
    | _ -> Alcotest.fail "generator did not produce an abstraction"
  done

(* ------------------------------------------------------------------ *)
(* Subst                                                                *)
(* ------------------------------------------------------------------ *)

let test_subst_simple () =
  let a = Sexp.parse_app "(f x x ce! cc!)" in
  let x =
    Ident.Set.elements (Term.free_vars_app a)
    |> List.find (fun id -> id.Ident.name = "x")
  in
  let a' = Subst.app x ~by:(Term.int 42) a in
  check tint "both occurrences replaced" 0 (Occurs.count_app x a');
  check tbool "42 present" true
    (Term.exists_app
       (fun node -> List.exists (Term.equal_value (Term.int 42)) node.Term.args)
       a')

let test_subst_under_binder () =
  let a = Sexp.parse_app "(f cont(t) (g x t ce! cc!) x)" in
  let x =
    Ident.Set.elements (Term.free_vars_app a)
    |> List.find (fun id -> id.Ident.name = "x")
  in
  let a' = Subst.app x ~by:(Term.int 7) a in
  check tint "inner occurrence replaced too" 0 (Occurs.count_app x a')

let test_subst_many () =
  let a = Sexp.parse_app "(f x y ce! cc!)" in
  let frees = Ident.Set.elements (Term.free_vars_app a) in
  let x = List.find (fun id -> id.Ident.name = "x") frees in
  let y = List.find (fun id -> id.Ident.name = "y") frees in
  let env = Ident.Map.(empty |> add x (Term.int 1) |> add y (Term.int 2)) in
  let a' = Subst.app_many env a in
  check tint "x gone" 0 (Occurs.count_app x a');
  check tint "y gone" 0 (Occurs.count_app y a')

(* ------------------------------------------------------------------ *)
(* Alpha                                                                *)
(* ------------------------------------------------------------------ *)

let test_alpha_freshen () =
  let v = sample_term () in
  let v' = Alpha.freshen_value v in
  check tbool "alpha-equivalent" true (Term.alpha_equal_value v v');
  check tbool "not structurally equal" false (Term.equal_value v v');
  (* binder stamps must be disjoint *)
  let binders value =
    let acc = ref Ident.Set.empty in
    let rec go = function
      | Term.Abs a ->
        List.iter (fun p -> acc := Ident.Set.add p !acc) a.Term.params;
        go_app a.Term.body
      | _ -> ()
    and go_app { Term.func; args } =
      go func;
      List.iter go args
    in
    go value;
    !acc
  in
  check tbool "disjoint binders" true
    (Ident.Set.is_empty (Ident.Set.inter (binders v) (binders v')))

let test_alpha_keeps_free () =
  let a = Sexp.parse_app "(f x ce! cc!)" in
  let v = Term.Abs { Term.params = []; body = a } in
  let v' = Alpha.freshen_value v in
  check tbool "free variables preserved" true
    (Ident.Set.equal (Term.free_vars_value v) (Term.free_vars_value v'))

(* ------------------------------------------------------------------ *)
(* Sexp / Pp round trips                                                *)
(* ------------------------------------------------------------------ *)

let test_sexp_roundtrip () =
  (* closed terms: α-equivalence requires free identifiers to be identical,
     and re-parsing mints fresh stamps for free tokens *)
  let samples =
    [
      "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))";
      "proc(a b ce! k!) (== a 1 2 cont() (k! b) cont() (k! a) cont() (k! 0))";
      "proc(ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! 3) cont(i) (cc! i)))";
      "proc(ce! cc!) (ccall \"print_str\" \"hi\\n\" ce! cc!)";
      "proc(f x ce! cc!) (f 'a' 1.5 <oid 12> nil true false x ce! cc!)";
      "proc(a b ce! cc!) (<= a b cont() (cc! a) cont() (cc! b))";
    ]
  in
  List.iter
    (fun s ->
      let v = Sexp.parse_value s in
      let v' = Sexp.parse_value (Sexp.print_value v) in
      check tbool ("roundtrip: " ^ s) true (Term.alpha_equal_value v v'))
    samples

let test_sexp_parse_errors () =
  let bad = [ "("; "(f"; ")"; "proc(x"; "(f 'unterminated)"; "" ] in
  List.iter
    (fun s ->
      match Sexp.parse_app s with
      | exception Sexp.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" s)
    bad

let test_pp_paper_style () =
  let v = Sexp.parse_value "cont(t) (cc! t)" in
  let printed = Pp.value_to_string v in
  check tbool "prints cont keyword" true
    (String.length printed >= 4 && String.sub printed 0 4 = "cont")

(* ------------------------------------------------------------------ *)
(* Wf                                                                   *)
(* ------------------------------------------------------------------ *)

let wf_ok s =
  match Wf.check_value (Sexp.parse_value s) with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "expected well-formed %S: %s" s
      (String.concat "; " (List.map (fun e -> e.Wf.message) es))

let wf_bad s =
  match Wf.check_value (Sexp.parse_value s) with
  | Ok () -> Alcotest.failf "expected ill-formed: %S" s
  | Error _ -> ()

let test_wf_positive () =
  wf_ok "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))";
  wf_ok "proc(x ce! cc!) (== x 1 2 cont() (cc! 10) cont() (cc! 20) cont() (cc! 30))";
  wf_ok
    "proc(n ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! n 0) cont(i acc) (<= i 0 cont() \
     (cc! acc) cont() (+ acc i ce! cont(a2) (- i 1 ce! cont(i2) (loop! i2 a2))))))";
  wf_ok "proc(ce! cc!) (pushHandler cont(x) (cc! x) cont() (raise \"boom\"))";
  (* β-redex kept in the tree *)
  wf_ok "proc(ce! cc!) (cont(x y) (cc! x) 1 2)"

let test_wf_double_binding () =
  (* the same identifier bound twice violates the unique binding rule; the
     Sexp reader creates fresh stamps per binder, so we build it by hand *)
  let x = Ident.fresh "x" in
  let cc = Ident.fresh ~sort:Ident.Cont "cc" in
  let ce = Ident.fresh ~sort:Ident.Cont "ce" in
  let inner = Term.abs [ x ] (Term.app (Term.var cc) [ Term.var x ]) in
  let v = Term.abs [ x; ce; cc ] (Term.app inner [ Term.var x ]) in
  match Wf.check_value v with
  | Ok () -> Alcotest.fail "double binding accepted"
  | Error es ->
    check tbool "mentions unique binding" true
      (List.exists (fun e -> contains e.Wf.message "unique binding") es)

let test_wf_cont_escape () =
  (* a continuation passed in a value position *)
  wf_bad "proc(x ce! cc!) (f cont(t) (cc! t) ce! cc!)";
  (* a continuation variable as a value argument *)
  wf_bad "proc(x ce! cc!) (f cc! ce! cc!)"

let test_wf_bad_shapes () =
  (* abstraction used as a value with wrong continuation parameters *)
  wf_bad "proc(x ce! cc!) (g proc(y k!) (k! y) ce! cc!)";
  (* unknown primitive, built directly (the reader would read it as a
     variable) *)
  (let x = Ident.fresh "x" in
   let ce = Ident.fresh ~sort:Ident.Cont "ce" in
   let cc = Ident.fresh ~sort:Ident.Cont "cc" in
   let v =
     Term.abs [ x; ce; cc ]
       (Term.app (Term.prim "frobnicate") [ Term.var x; Term.var ce; Term.var cc ])
   in
   match Wf.check_value v with
   | Ok () -> Alcotest.fail "unknown primitive accepted"
   | Error _ -> ());
  (* literal in functional position *)
  wf_bad "proc(x ce! cc!) (42 x ce! cc!)";
  (* β-redex arity mismatch *)
  wf_bad "proc(ce! cc!) (cont(x y) (cc! x) 1)";
  (* == with tags/continuations mismatch *)
  wf_bad "proc(x ce! cc!) (== x 1 2 cont() (cc! 1))";
  (* Y with a non-canonical binder *)
  wf_bad "proc(ce! cc!) (Y proc(a b ce2! cc2!) (cc2! a))"

let test_wf_scoping () =
  let v = Sexp.parse_value "proc(x ce! cc!) (+ x unbound_thing ce! cc!)" in
  (match Wf.check_value ~free_allowed:(fun _ -> false) v with
  | Ok () -> Alcotest.fail "unbound identifier accepted"
  | Error _ -> ());
  match Wf.check_value v with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "free identifiers should be allowed by default"

(* ------------------------------------------------------------------ *)
(* Prim registry and cost model                                         *)
(* ------------------------------------------------------------------ *)

let test_prim_registry () =
  Primitives.install ();
  check tbool "plus registered" true (Prim.mem "+");
  check tbool "unknown absent" false (Prim.mem "no-such-prim");
  let d = Prim.find_exn "+" in
  check tbool "commutative" true d.Prim.attrs.commutative;
  check tbool "pure" true (d.Prim.attrs.effects = Prim.Pure);
  check tbool "foldable" true d.Prim.attrs.can_fold;
  (* duplicate registration is refused without override *)
  (match Prim.register (Prim.make ~name:"+" ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate registration accepted");
  (* fresh registration works and shows up in [all] *)
  Prim.register (Prim.make ~name:"test-only-prim" ~base_cost:7 ());
  check tbool "listed" true
    (List.exists (fun d -> d.Prim.name = "test-only-prim") (Prim.all ()));
  check tint "cost served" 7
    (Prim.cost_of_app (Term.app (Term.prim "test-only-prim") []))

let test_cost_model () =
  let a = Sexp.parse_app "(+ x 1 ce! cont(t) (cc! t))" in
  (* '+' costs 1, the continuation call costs call_overhead + 1 arg *)
  check tint "app cost" (1 + Cost.call_overhead + 1) (Cost.app_cost a);
  check tint "values are free" 0 (Cost.value_cost (Term.int 3));
  (* literal arguments earn an inlining bonus *)
  let body = Sexp.parse_app "(cc! 1)" in
  let s_no = Cost.inline_savings ~body ~args:[ Term.var (Ident.fresh "x") ] in
  let s_lit = Cost.inline_savings ~body ~args:[ Term.int 1 ] in
  check tbool "literal bonus" true (s_lit > s_no)

let test_effect_classes () =
  let by_class cls =
    List.filter (fun d -> d.Prim.attrs.effects = cls) (Prim.all ()) |> List.length
  in
  check tbool "some pure prims" true (by_class Prim.Pure > 10);
  check tbool "some observers" true (by_class Prim.Observer > 3);
  check tbool "some mutators" true (by_class Prim.Mutator > 3);
  check tbool "control prims" true (by_class Prim.Control >= 3)

let test_sexp_comments_and_oids () =
  let v = Sexp.parse_value "proc(x ce! cc!) ; paper-style comment\n (cc! <oid 9>)" in
  (match v with
  | Term.Abs { body = { args = [ Term.Lit (Literal.Oid o) ]; _ }; _ } ->
    check tint "oid payload" 9 (Oid.to_int o)
  | _ -> Alcotest.fail "unexpected shape");
  (* pretty printers stay total on all node kinds *)
  let printed = Pp.value_to_string v in
  check tbool "flat printer agrees on atoms" true (String.length printed > 0);
  check tbool "flat form single line" true
    (not (String.contains (Format.asprintf "%a" Pp.pp_value_flat v) '\n'))

let () =
  Primitives.install ();
  Alcotest.run "tml_core"
    [
      ( "ident",
        [
          Alcotest.test_case "fresh" `Quick test_ident_fresh;
          Alcotest.test_case "refresh" `Quick test_ident_refresh;
          Alcotest.test_case "make bumps counter" `Quick test_ident_make_bumps_counter;
          Alcotest.test_case "collections" `Quick test_ident_collections;
        ] );
      ( "literal",
        [
          Alcotest.test_case "equality" `Quick test_literal_equal;
          Alcotest.test_case "compare total" `Quick test_literal_compare_total;
        ] );
      ( "term",
        [
          Alcotest.test_case "size" `Quick test_term_size;
          Alcotest.test_case "free vars" `Quick test_term_free_vars;
          Alcotest.test_case "proc/cont kinds" `Quick test_term_kind;
          Alcotest.test_case "alpha equality" `Quick test_alpha_equal;
          Alcotest.test_case "prims used" `Quick test_prims_used;
          Alcotest.test_case "equality on distinct copies" `Quick test_equal_distinct_copies;
        ] );
      ( "occurs",
        [
          Alcotest.test_case "paper definition" `Quick test_occurs_basic;
          Alcotest.test_case "count all" `Quick test_occurs_all;
          Alcotest.test_case "agrees with free vars" `Quick test_occurs_agrees_with_free_vars;
        ] );
      ( "subst",
        [
          Alcotest.test_case "simple" `Quick test_subst_simple;
          Alcotest.test_case "under binder" `Quick test_subst_under_binder;
          Alcotest.test_case "simultaneous" `Quick test_subst_many;
        ] );
      ( "alpha",
        [
          Alcotest.test_case "freshen" `Quick test_alpha_freshen;
          Alcotest.test_case "keeps free variables" `Quick test_alpha_keeps_free;
        ] );
      ( "sexp",
        [
          Alcotest.test_case "round trips" `Quick test_sexp_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_sexp_parse_errors;
          Alcotest.test_case "paper-style printing" `Quick test_pp_paper_style;
        ] );
      ( "prim",
        [
          Alcotest.test_case "registry" `Quick test_prim_registry;
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "effect classes" `Quick test_effect_classes;
          Alcotest.test_case "comments and oids" `Quick test_sexp_comments_and_oids;
        ] );
      ( "wf",
        [
          Alcotest.test_case "well-formed programs" `Quick test_wf_positive;
          Alcotest.test_case "unique binding" `Quick test_wf_double_binding;
          Alcotest.test_case "continuations escape" `Quick test_wf_cont_escape;
          Alcotest.test_case "bad shapes" `Quick test_wf_bad_shapes;
          Alcotest.test_case "scoping" `Quick test_wf_scoping;
        ] );
    ]
