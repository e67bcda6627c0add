(* Tests for the query substrate: relations, query primitives, and the
   algebraic / runtime rewrite rules of section 4.2. *)

open Tml_core
open Tml_vm
open Tml_query

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let fresh_ctx () =
  Qprims.install ();
  Runtime.create (Value.Heap.create ())

let employee_rows =
  [
    [| Value.Int 1; Value.Int 23; Value.Int 4100 |];
    [| Value.Int 2; Value.Int 38; Value.Int 6500 |];
    [| Value.Int 3; Value.Int 38; Value.Int 5200 |];
    [| Value.Int 4; Value.Int 55; Value.Int 8000 |];
    [| Value.Int 5; Value.Int 29; Value.Int 4600 |];
  ]

let with_employees f =
  let ctx = fresh_ctx () in
  let rel = Rel.create ctx ~name:"employees" employee_rows in
  f ctx rel

(* Run a TML application whose free identifiers are bound by [bindings]. *)
let rec run_tml ctx bindings src = run_term ctx bindings (Sexp.parse_app src)

and run_term ctx bindings a =
  let frees = Ident.Set.elements (Term.free_vars_app a) in
  let env =
    List.fold_left
      (fun env id ->
        match List.assoc_opt id.Ident.name bindings with
        | Some v -> Ident.Map.add id v env
        | None -> env)
      Ident.Map.empty frees
  in
  let env =
    List.fold_left
      (fun env id ->
        match id.Ident.name with
        | "halt_ok" -> Ident.Map.add id (Value.Halt true) env
        | "halt_err" -> Ident.Map.add id (Value.Halt false) env
        | _ -> env)
      env frees
  in
  Eval.run_app ctx ~env a

(* ------------------------------------------------------------------ *)
(* Rel                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rel_basics () =
  with_employees (fun ctx rel ->
      check tint "five rows" 5 (Array.length (Rel.rows ctx rel));
      let row0 = (Rel.rows ctx rel).(0) in
      let fields = Rel.row_tuple ctx row0 in
      check tbool "field access" true (Value.identical fields.(2) (Value.Int 4100));
      Rel.insert ctx rel [| Value.Int 6; Value.Int 41; Value.Int 7000 |];
      check tint "after insert" 6 (Array.length (Rel.rows ctx rel)))

let test_rel_paging () =
  let saved = !Relcore.default_page_size in
  Relcore.default_page_size := 4;
  Fun.protect
    ~finally:(fun () -> Relcore.default_page_size := saved)
    (fun () ->
      let ctx = fresh_ctx () in
      let rel =
        Rel.create ctx ~name:"big" (List.init 22 (fun i -> [| Value.Int i; Value.Int (i * i) |]))
      in
      let r = Rel.get ctx rel in
      check tint "22 rows" 22 (Rel.length ctx rel);
      check tint "five sealed pages" 5 (Relcore.page_count r);
      check tint "two tail rows" 2 r.Value.rel_tail_len;
      (* nth spans pages and tail *)
      List.iter
        (fun i ->
          let fields = Rel.row_tuple ctx (Rel.nth ctx rel i) in
          check tbool (Printf.sprintf "row %d content" i) true
            (Value.identical fields.(1) (Value.Int (i * i))))
        [ 0; 3; 4; 19; 20; 21 ];
      (* iteri covers every row exactly once, in order *)
      let seen = ref [] in
      Rel.iteri ctx rel (fun i row ->
          let fields = Rel.row_tuple ctx row in
          check tbool "iteri order" true (Value.identical fields.(0) (Value.Int i));
          seen := i :: !seen);
      check tint "iteri count" 22 (List.length !seen);
      (* inserts seal full tails into fresh pages *)
      for i = 22 to 27 do
        Rel.insert ctx rel [| Value.Int i; Value.Int (i * i) |]
      done;
      let r = Rel.get ctx rel in
      check tint "28 rows after inserts" 28 (Rel.length ctx rel);
      check tint "seven sealed pages" 7 (Relcore.page_count r);
      check tint "empty tail" 0 r.Value.rel_tail_len;
      let fields = Rel.row_tuple ctx (Rel.nth ctx rel 27) in
      check tbool "inserted row content" true (Value.identical fields.(1) (Value.Int (27 * 27))))

let test_rel_stats () =
  with_employees (fun ctx rel ->
      (match Rel.stats ctx rel with
      | Some st ->
        check tint "count" 5 st.Value.st_count;
        check tint "arity" 3 st.Value.st_arity;
        check tbool "no distinct sketch yet" true (st.Value.st_distinct = [])
      | None -> Alcotest.fail "stats object missing at creation");
      Rel.add_index ctx rel 1;
      (match Rel.stats ctx rel with
      | Some st -> check tbool "distinct tracked for indexed field" true
          (List.assoc_opt 1 st.Value.st_distinct = Some 4)
      | None -> Alcotest.fail "stats lost by mkindex");
      Rel.insert ctx rel [| Value.Int 6; Value.Int 77; Value.Int 100 |];
      match Rel.stats ctx rel with
      | Some st ->
        check tint "count maintained" 6 st.Value.st_count;
        check tbool "distinct maintained" true (List.assoc_opt 1 st.Value.st_distinct = Some 5)
      | None -> Alcotest.fail "stats lost by insert")

let test_rel_index () =
  with_employees (fun ctx rel ->
      check tbool "no index yet" true (Rel.find_index ctx rel 1 = None);
      Rel.add_index ctx rel 1;
      (match Rel.lookup ctx rel ~field:1 (Literal.Int 38) with
      | Some positions -> check tint "two aged 38" 2 (List.length positions)
      | None -> Alcotest.fail "index missing");
      (* inserts maintain the index *)
      Rel.insert ctx rel [| Value.Int 6; Value.Int 38; Value.Int 100 |];
      match Rel.lookup ctx rel ~field:1 (Literal.Int 38) with
      | Some positions -> check tint "three after insert" 3 (List.length positions)
      | None -> Alcotest.fail "index missing after insert")

(* ------------------------------------------------------------------ *)
(* Query primitives (through the evaluator)                             *)
(* ------------------------------------------------------------------ *)

let test_prim_select_count () =
  with_employees (fun ctx rel ->
      let outcome =
        run_tml ctx
          [ "r", Value.Oidv rel ]
          "(select proc(x pce! pcc!) ([] x 1 cont(age) (>= age 38 cont() (pcc! true) cont() \
           (pcc! false))) r halt_err! cont(out) (count out cont(n) (halt_ok! n)))"
      in
      match outcome with
      | Eval.Done (Value.Int n) -> check tint "three at least 38" 3 n
      | o -> Alcotest.failf "unexpected: %a" Eval.pp_outcome o)

let test_prim_select_preserves_identity () =
  with_employees (fun ctx rel ->
      let outcome =
        run_tml ctx
          [ "r", Value.Oidv rel ]
          "(select proc(x pce! pcc!) (pcc! true) r halt_err! cont(out) ([] out 0 cont(row) \
           (halt_ok! row)))"
      in
      ignore outcome;
      (* row identity: the selected relation contains the same tuple oids *)
      let orig_first = (Rel.rows ctx rel).(0) in
      match outcome with
      | Eval.Done v -> check tbool "same row oid" true (Value.identical v orig_first)
      | o -> Alcotest.failf "unexpected: %a" Eval.pp_outcome o)

let test_prim_project () =
  with_employees (fun ctx rel ->
      let outcome =
        run_tml ctx
          [ "r", Value.Oidv rel ]
          "(project proc(x pce! pcc!) ([] x 2 cont(sal) (tuple sal cont(t) (pcc! t))) r \
           halt_err! cont(out) ([] out 3 cont(row) ([] row 0 cont(s) (halt_ok! s))))"
      in
      match outcome with
      | Eval.Done (Value.Int 8000) -> ()
      | o -> Alcotest.failf "unexpected: %a" Eval.pp_outcome o)

let test_prim_join () =
  let ctx = fresh_ctx () in
  let r1 = Rel.create ctx ~name:"a" [ [| Value.Int 1 |]; [| Value.Int 2 |] ] in
  let r2 = Rel.create ctx ~name:"b" [ [| Value.Int 2 |]; [| Value.Int 3 |] ] in
  let outcome =
    run_tml ctx
      [ "r1", Value.Oidv r1; "r2", Value.Oidv r2 ]
      "(join proc(x y pce! pcc!) ([] x 0 cont(a) ([] y 0 cont(b) (== a b cont() (pcc! true) \
       cont() (pcc! false)))) r1 r2 halt_err! cont(out) (count out cont(n) (halt_ok! n)))"
  in
  match outcome with
  | Eval.Done (Value.Int 1) -> ()
  | o -> Alcotest.failf "join: %a" Eval.pp_outcome o

let test_prim_exists_empty_sum () =
  with_employees (fun ctx rel ->
      (match
         run_tml ctx
           [ "r", Value.Oidv rel ]
           "(exists proc(x pce! pcc!) ([] x 1 cont(a) (> a 50 cont() (pcc! true) cont() \
            (pcc! false))) r halt_err! cont(b) (halt_ok! b))"
       with
      | Eval.Done (Value.Bool true) -> ()
      | o -> Alcotest.failf "exists: %a" Eval.pp_outcome o);
      (match
         run_tml ctx [ "r", Value.Oidv rel ] "(empty r cont(b) (halt_ok! b))"
       with
      | Eval.Done (Value.Bool false) -> ()
      | o -> Alcotest.failf "empty: %a" Eval.pp_outcome o);
      match
        run_tml ctx
          [ "r", Value.Oidv rel ]
          "(sum proc(x pce! pcc!) ([] x 2 pcc!) r halt_err! cont(s) (halt_ok! s))"
      with
      | Eval.Done (Value.Int 28400) -> ()
      | o -> Alcotest.failf "sum: %a" Eval.pp_outcome o)

let test_prim_exceptions_propagate () =
  with_employees (fun ctx rel ->
      match
        run_tml ctx
          [ "r", Value.Oidv rel ]
          "(select proc(x pce! pcc!) (pce! \"pred failed\") r halt_err! cont(out) (halt_ok! \
           out))"
      with
      | Eval.Raised (Value.Str "pred failed") -> ()
      | o -> Alcotest.failf "expected Raised, got %a" Eval.pp_outcome o)

let test_prim_indexselect () =
  with_employees (fun ctx rel ->
      Rel.add_index ctx rel 1;
      (match
         run_tml ctx
           [ "r", Value.Oidv rel ]
           "(indexselect r 1 38 halt_err! cont(out) (count out cont(n) (halt_ok! n)))"
       with
      | Eval.Done (Value.Int 2) -> ()
      | o -> Alcotest.failf "indexselect: %a" Eval.pp_outcome o);
      (* without an index it degrades to a scan with identical results *)
      match
        run_tml ctx
          [ "r", Value.Oidv rel ]
          "(indexselect r 2 8000 halt_err! cont(out) (count out cont(n) (halt_ok! n)))"
      with
      | Eval.Done (Value.Int 1) -> ()
      | o -> Alcotest.failf "indexselect scan: %a" Eval.pp_outcome o)

let test_prim_set_ops () =
  let ctx = fresh_ctx () in
  let r1 =
    Rel.create ctx ~name:"a" [ [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Int 2 |] ]
  in
  let r2 = Rel.create ctx ~name:"b" [ [| Value.Int 2 |]; [| Value.Int 3 |] ] in
  let bindings = [ "r1", Value.Oidv r1; "r2", Value.Oidv r2 ] in
  let count_of src =
    match run_tml ctx bindings src with
    | Eval.Done (Value.Int n) -> n
    | o -> Alcotest.failf "%s: %a" src Eval.pp_outcome o
  in
  check tint "union is multiset" 5 (count_of "(union r1 r2 cont(u) (count u cont(n) (halt_ok! n)))");
  check tint "inter by content" 2
    (count_of "(inter r1 r2 cont(u) (count u cont(n) (halt_ok! n)))");
  check tint "diff by content" 1
    (count_of "(diff r1 r2 cont(u) (count u cont(n) (halt_ok! n)))");
  check tint "distinct" 2 (count_of "(distinct r1 cont(u) (count u cont(n) (halt_ok! n)))")

let test_triggers () =
  let ctx = fresh_ctx () in
  let log = Rel.create ctx ~name:"audit" [] in
  let data = Rel.create ctx ~name:"data" [] in
  (* the trigger copies every inserted tuple's first field into the audit
     relation, doubled *)
  let trigger_src =
    Printf.sprintf
      "proc(row tce! tcc!) ([] row 0 cont(v) (+ v v tce! cont(d) (tuple d cont(t) (insert \
       <oid %d> t tce! tcc!))))"
      (Oid.to_int log)
  in
  let trigger = Sexp.parse_value trigger_src in
  let heap = ctx.Runtime.heap in
  let trigger_oid = Value.Heap.alloc_func heap ~name:"audit_trigger" trigger in
  let bindings = [ "r", Value.Oidv data ] in
  (match
     run_tml ctx bindings
       (Printf.sprintf "(ontrigger r <oid %d> cont(u) (halt_ok! u))" (Oid.to_int trigger_oid))
   with
  | Eval.Done Value.Unit -> ()
  | o -> Alcotest.failf "ontrigger: %a" Eval.pp_outcome o);
  (match
     run_tml ctx bindings
       "(tuple 21 cont(t) (insert r t halt_err! cont(u) (halt_ok! u)))"
   with
  | Eval.Done Value.Unit -> ()
  | o -> Alcotest.failf "insert with trigger: %a" Eval.pp_outcome o);
  check tint "row inserted" 1 (Array.length (Rel.rows ctx data));
  check tint "trigger fired into audit" 1 (Array.length (Rel.rows ctx log));
  let audit_row = Rel.row_tuple ctx (Rel.rows ctx log).(0) in
  check tbool "trigger saw the tuple" true (Value.identical audit_row.(0) (Value.Int 42));
  (* a raising trigger propagates through the exception continuation; the
     row stays inserted (triggers run after the update) *)
  let bad = Sexp.parse_value "proc(row tce! tcc!) (tce! \"trigger says no\")" in
  let bad_oid = Value.Heap.alloc_func heap ~name:"bad_trigger" bad in
  (match
     run_tml ctx bindings
       (Printf.sprintf "(ontrigger r <oid %d> cont(u) (halt_ok! u))" (Oid.to_int bad_oid))
   with
  | Eval.Done Value.Unit -> ()
  | o -> Alcotest.failf "ontrigger 2: %a" Eval.pp_outcome o);
  (match
     run_tml ctx bindings
       "(tuple 5 cont(t) (insert r t halt_err! cont(u) (halt_ok! u)))"
   with
  | Eval.Raised (Value.Str "trigger says no") -> ()
  | o -> Alcotest.failf "raising trigger: %a" Eval.pp_outcome o);
  check tint "row still inserted" 2 (Array.length (Rel.rows ctx data))

let test_prim_aggregates () =
  with_employees (fun ctx rel ->
      let salary = "proc(x ace! acc!) ([] x 2 acc!)" in
      (match
         run_tml ctx
           [ "r", Value.Oidv rel ]
           (Printf.sprintf "(minagg %s r halt_err! cont(m) (halt_ok! m))" salary)
       with
      | Eval.Done (Value.Int 4100) -> ()
      | o -> Alcotest.failf "minagg: %a" Eval.pp_outcome o);
      (match
         run_tml ctx
           [ "r", Value.Oidv rel ]
           (Printf.sprintf "(maxagg %s r halt_err! cont(m) (halt_ok! m))" salary)
       with
      | Eval.Done (Value.Int 8000) -> ()
      | o -> Alcotest.failf "maxagg: %a" Eval.pp_outcome o);
      (* empty relation raises *)
      let empty_rel = Rel.create ctx ~name:"none" [] in
      match
        run_tml ctx
          [ "r", Value.Oidv empty_rel ]
          (Printf.sprintf "(minagg %s r halt_err! cont(m) (halt_ok! m))" salary)
      with
      | Eval.Raised _ -> ()
      | o -> Alcotest.failf "minagg on empty: %a" Eval.pp_outcome o)

(* ------------------------------------------------------------------ *)
(* Algebraic rewrite rules                                              *)
(* ------------------------------------------------------------------ *)

let count_prim name a =
  let n = ref 0 in
  Term.iter_apps
    (fun node ->
      match node.Term.func with
      | Term.Prim p when p = name -> incr n
      | _ -> ())
    a;
  !n

let field_pred ~field ~value =
  Printf.sprintf
    "proc(x pce%d! pcc%d!) ([] x %d cont(t%d) (== t%d %d cont() (pcc%d! true) cont() (pcc%d! \
     false)))"
    field field field field field value field field

let test_merge_select_applies () =
  let src =
    Printf.sprintf
      "(select %s r ce! cont(tmp) (select %s tmp ce! k!))"
      (field_pred ~field:0 ~value:1)
      (field_pred ~field:1 ~value:2)
  in
  let a = Sexp.parse_app src in
  check tint "two selects before" 2 (count_prim "select" a);
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "one select after" 1 (count_prim "select" a')

let test_merge_select_preconditions () =
  (* different exception continuations block the merge *)
  let src =
    Printf.sprintf "(select %s r ce1! cont(tmp) (select %s tmp ce2! k!))"
      (field_pred ~field:0 ~value:1)
      (field_pred ~field:1 ~value:2)
  in
  let a = Sexp.parse_app src in
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "merge blocked by differing ce" 2 (count_prim "select" a');
  (* intermediate relation used twice blocks the merge *)
  let src2 =
    Printf.sprintf "(select %s r ce! cont(tmp) (select %s tmp ce! cont(out) (join jp tmp out \
     ce! k!)))"
      (field_pred ~field:0 ~value:1)
      (field_pred ~field:1 ~value:2)
  in
  let a2 = Sexp.parse_app src2 in
  let a2' = Rewrite.reduce_app ~rules:Qopt.static_rules a2 in
  check tint "merge blocked by shared intermediate" 2 (count_prim "select" a2')

let test_merge_select_semantics () =
  (* chained and merged runs produce the same rows *)
  with_employees (fun ctx rel ->
      let chained_src =
        Printf.sprintf
          "(select %s r halt_err! cont(tmp) (select %s tmp halt_err! cont(out) (sum \
           proc(x spce! spcc!) ([] x 0 spcc!) out halt_err! cont(s) (halt_ok! s))))"
          (field_pred ~field:1 ~value:38)
          (field_pred ~field:2 ~value:5200)
      in
      let a = Sexp.parse_app chained_src in
      let merged = Rewrite.reduce_app ~rules:Qopt.static_rules a in
      let run term =
        let frees = Ident.Set.elements (Term.free_vars_app term) in
        let env =
          List.fold_left
            (fun env id ->
              let v =
                match id.Ident.name with
                | "r" -> Some (Value.Oidv rel)
                | "halt_ok" -> Some (Value.Halt true)
                | "halt_err" -> Some (Value.Halt false)
                | _ -> None
              in
              match v with
              | Some v -> Ident.Map.add id v env
              | None -> env)
            Ident.Map.empty frees
        in
        Eval.run_app ctx ~env term
      in
      match run a, run merged with
      | Eval.Done v1, Eval.Done v2 ->
        check tbool "same aggregate" true (Value.identical v1 v2);
        check tbool "expected id sum" true (Value.identical v1 (Value.Int 3))
      | o1, o2 ->
        Alcotest.failf "chained %a, merged %a" Eval.pp_outcome o1 Eval.pp_outcome o2)

let test_merge_project () =
  let proj body_field =
    Printf.sprintf
      "proc(x qce%d! qcc%d!) ([] x %d cont(v%d) (tuple v%d cont(t%d) (qcc%d! t%d)))"
      body_field body_field body_field body_field body_field body_field body_field body_field
  in
  let src =
    Printf.sprintf "(project %s r ce! cont(tmp) (project %s tmp ce! k!))" (proj 1) (proj 0)
  in
  let a = Sexp.parse_app src in
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "projects fused" 1 (count_prim "project" a')

let test_constant_select () =
  (* σtrue fires when the temp is consumed read-only by a literal
     continuation *)
  let a =
    Sexp.parse_app "(select proc(x pce! pcc!) (pcc! true) r ce! cont(s) (count s k!))"
  in
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "σtrue eliminated" 0 (count_prim "select" a');
  check tbool "relation passed through" true
    (Term.alpha_equal_by_name_app a' (Sexp.parse_app "(count r k!)"));
  (* ... but not when the temp escapes to an unknown continuation: the
     caller could mutate it through the alias *)
  let esc = Sexp.parse_app "(select proc(x pce! pcc!) (pcc! true) r ce! k!)" in
  let esc' = Rewrite.reduce_app ~rules:Qopt.static_rules esc in
  check tint "σtrue kept when the result escapes" 1 (count_prim "select" esc');
  (* ... and not when the temp is mutated: the insert must hit a copy
     (minimized differential-fuzzer counterexample) *)
  let mut =
    Sexp.parse_app
      "(select proc(x pce! pcc!) (pcc! true) r ce! cont(s) (tuple 0 cont(t) (insert s t \
       ce! cont(u) (k! 0))))"
  in
  let mut' = Rewrite.reduce_app ~rules:Qopt.static_rules mut in
  check tint "σtrue kept when the result is mutated" 1 (count_prim "select" mut');
  let a2 = Sexp.parse_app "(select proc(x pce! pcc!) (pcc! false) r ce! k!)" in
  let a2' = Rewrite.reduce_app ~rules:Qopt.static_rules a2 in
  check tbool "σfalse becomes empty relation" true
    (Term.alpha_equal_by_name_app a2' (Sexp.parse_app "(relation k!)"))

let test_trivial_exists () =
  (* x unused and pure predicate: rewrite applies *)
  let a =
    Sexp.parse_app
      "(exists proc(x pce! pcc!) (> y 0 cont() (pcc! true) cont() (pcc! false)) r ce! k!)"
  in
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "exists eliminated" 0 (count_prim "exists" a');
  check tint "empty introduced" 1 (count_prim "empty" a');
  (* x used: precondition |p|_x = 0 fails *)
  let a2 =
    Sexp.parse_app
      "(exists proc(x pce! pcc!) ([] x 0 cont(t) (> t 0 cont() (pcc! true) cont() (pcc! \
       false))) r ce! k!)"
  in
  let a2' = Rewrite.reduce_app ~rules:Qopt.static_rules a2 in
  check tint "exists kept when x occurs" 1 (count_prim "exists" a2');
  (* impure predicate (unknown call): purity guard blocks *)
  let a3 =
    Sexp.parse_app
      "(exists proc(x pce! pcc!) (somefn 1 pce! cont(t) (pcc! t)) r ce! k!)"
  in
  let a3' = Rewrite.reduce_app ~rules:Qopt.static_rules a3 in
  check tint "exists kept for impure predicate" 1 (count_prim "exists" a3')

let test_trivial_exists_semantics () =
  with_employees (fun ctx rel ->
      let src =
        "(exists proc(x pce! pcc!) (> y 0 cont() (pcc! true) cont() (pcc! false)) r \
         halt_err! cont(b) (halt_ok! b))"
      in
      let a = Sexp.parse_app src in
      let rewritten = Rewrite.reduce_app ~rules:Qopt.static_rules a in
      let run term y =
        let frees = Ident.Set.elements (Term.free_vars_app term) in
        let env =
          List.fold_left
            (fun env id ->
              let v =
                match id.Ident.name with
                | "r" -> Some (Value.Oidv rel)
                | "y" -> Some (Value.Int y)
                | "halt_ok" -> Some (Value.Halt true)
                | "halt_err" -> Some (Value.Halt false)
                | _ -> None
              in
              match v with
              | Some v -> Ident.Map.add id v env
              | None -> env)
            Ident.Map.empty frees
        in
        Eval.run_app ctx ~env term
      in
      List.iter
        (fun y ->
          match run a y, run rewritten y with
          | Eval.Done v1, Eval.Done v2 ->
            check tbool (Printf.sprintf "same result for y=%d" y) true (Value.identical v1 v2)
          | o1, o2 ->
            Alcotest.failf "original %a, rewritten %a" Eval.pp_outcome o1 Eval.pp_outcome o2)
        [ -1; 1 ])

let test_select_union_rule () =
  let src =
    Printf.sprintf "(union r1 r2 cont(t) (select %s t ce! k!))"
      (field_pred ~field:0 ~value:1)
  in
  let a = Sexp.parse_app src in
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "selection distributed over union" 2 (count_prim "select" a');
  (* behaviour preserved *)
  let ctx = fresh_ctx () in
  let r1 = Rel.create ctx ~name:"a" [ [| Value.Int 1 |]; [| Value.Int 2 |] ] in
  let r2 = Rel.create ctx ~name:"b" [ [| Value.Int 1 |]; [| Value.Int 3 |] ] in
  let wrap term =
    let frees = Ident.Set.elements (Term.free_vars_app term) in
    let env =
      List.fold_left
        (fun env id ->
          let v =
            match id.Ident.name with
            | "r1" -> Some (Value.Oidv r1)
            | "r2" -> Some (Value.Oidv r2)
            | "k" -> Some (Value.Halt true)
            | "ce" -> Some (Value.Halt false)
            | _ -> None
          in
          match v with
          | Some v -> Ident.Map.add id v env
          | None -> env)
        Ident.Map.empty frees
    in
    match Eval.run_app ctx ~env term with
    | Eval.Done (Value.Oidv rel) -> Array.length (Rel.rows ctx rel)
    | o -> Alcotest.failf "select-union run: %a" Eval.pp_outcome o
  in
  check tint "same cardinality" (wrap a) (wrap a')

let test_distinct_rules () =
  (* δ∘δ collapses *)
  let a = Sexp.parse_app "(distinct r cont(t) (distinct t k!))" in
  let a' = Rewrite.reduce_app ~rules:Qopt.static_rules a in
  check tint "idempotent distinct" 1 (count_prim "distinct" a');
  (* δ(σp(R)): select first for row-local predicates *)
  let src =
    Printf.sprintf "(distinct r cont(t) (select %s t ce! k!))" (field_pred ~field:0 ~value:1)
  in
  let b = Sexp.parse_app src in
  let b' = Rewrite.reduce_app ~rules:Qopt.static_rules b in
  (match b'.Term.func with
  | Term.Prim "select" -> ()
  | _ -> Alcotest.fail "select should come first after the rewrite");
  (* an identity-observing predicate blocks the swap: x escapes into a
     continuation argument position other than a field read *)
  let c =
    Sexp.parse_app
      "(distinct r cont(t) (select proc(x pce! pcc!) (== x probe cont() (pcc! true) cont() \
       (pcc! false)) t ce! k!))"
  in
  let c' = Rewrite.reduce_app ~rules:Qopt.static_rules c in
  match c'.Term.func with
  | Term.Prim "distinct" -> ()
  | _ -> Alcotest.fail "identity-observing predicate must block the swap"

(* ------------------------------------------------------------------ *)
(* Runtime (store-dependent) rules                                      *)
(* ------------------------------------------------------------------ *)

(* run a term whose result continuation k! receives a relation; return it *)
let run_term_to_rel ctx bindings a =
  match run_term ctx (("k", Value.Halt true) :: ("ce", Value.Halt false) :: bindings) a with
  | Eval.Done (Value.Oidv out) -> out
  | o -> Alcotest.failf "%s: %a" (Sexp.print_app a) Eval.pp_outcome o

let run_to_rel ctx bindings src = run_term_to_rel ctx bindings (Sexp.parse_app src)

let rows_equal ctx name r1 r2 =
  let a1 = Rel.rows ctx r1 and a2 = Rel.rows ctx r2 in
  check tint (name ^ ": cardinality") (Array.length a1) (Array.length a2);
  Array.iteri
    (fun i row1 ->
      let f1 = Rel.row_tuple ctx row1 and f2 = Rel.row_tuple ctx a2.(i) in
      check tint (Printf.sprintf "%s: row %d width" name i) (Array.length f1)
        (Array.length f2);
      Array.iteri
        (fun j v1 ->
          check tbool (Printf.sprintf "%s: row %d field %d" name i j) true
            (Value.identical v1 f2.(j)))
        f1)
    a1

let test_field_eq_recognition () =
  let pred = Sexp.parse_value (field_pred ~field:1 ~value:38) in
  (match Qrewrite.field_eq_predicate pred with
  | Some (1, Term.Lit (Literal.Int 38)) -> ()
  | _ -> Alcotest.fail "field-equality predicate not recognized");
  (* a > predicate is not an equality *)
  let pred2 =
    Sexp.parse_value
      "proc(x pce! pcc!) ([] x 1 cont(t) (> t 38 cont() (pcc! true) cont() (pcc! false)))"
  in
  check tbool "non-equality rejected" true (Qrewrite.field_eq_predicate pred2 = None)

let key_pred ~key =
  Printf.sprintf
    "proc(x pce! pcc!) ([] x 1 cont(t) (== t %s cont() (pcc! true) cont() (pcc! false)))" key

let test_field_eq_runtime_key () =
  (* a key free in the predicate is bound at run time by the enclosing
     code: recognized, and handed back as the variable itself *)
  (match Qrewrite.field_eq_predicate (Sexp.parse_value (key_pred ~key:"k")) with
  | Some (1, Term.Var k) -> check Alcotest.string "key variable" "k" k.Ident.name
  | _ -> Alcotest.fail "free-variable key not recognized");
  (* keys bound inside the predicate are not in scope at the selection *)
  List.iter
    (fun key ->
      check tbool
        (Printf.sprintf "key %s bound inside the predicate rejected" key)
        true
        (Qrewrite.field_eq_predicate (Sexp.parse_value (key_pred ~key)) = None))
    [ "x"; "t"; "pce!"; "pcc!" ]

(* σ(x.[1] == k) with k bound at run time: the rule emits a probe that
   takes its key from the variable, and the probe agrees with the scan *)
let test_index_select_runtime_key () =
  with_employees (fun ctx rel ->
      Rel.add_index ctx rel 1;
      let src =
        Printf.sprintf "(select %s <oid %d> ce! k!)" (key_pred ~key:"key") (Oid.to_int rel)
      in
      let a = Sexp.parse_app src in
      let planned = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) a in
      check tint "indexselect introduced" 1 (count_prim "indexselect" planned);
      check tint "select eliminated" 0 (count_prim "select" planned);
      List.iter
        (fun key ->
          let bindings = [ "key", Value.Int key ] in
          let probes0 = !Rel.index_probes in
          let indexed = run_term_to_rel ctx bindings planned in
          check tint "one probe" 1 (!Rel.index_probes - probes0);
          rows_equal ctx
            (Printf.sprintf "key %d: indexselect ≡ select" key)
            (run_to_rel ctx bindings src) indexed)
        [ 38; 23; 99 ])

(* A key with no literal form cannot probe a hash index: the primitive
   scans instead of faulting, on an indexed and an unindexed field. *)
let test_indexselect_key_without_literal () =
  let ctx = fresh_ctx () in
  let closure = Value.Primv "+" in
  let rel =
    Rel.create ctx ~name:"fns"
      [ [| Value.Int 1; closure |]; [| Value.Int 2; Value.Primv "-" |]; [| Value.Int 3; closure |] ]
  in
  Rel.add_index ctx rel 0;
  let count_for field =
    match
      run_tml ctx
        [ "r", Value.Oidv rel; "key", closure ]
        (Printf.sprintf
           "(indexselect r %d key halt_err! cont(out) (count out cont(n) (halt_ok! n)))" field)
    with
    | Eval.Done (Value.Int n) -> n
    | o -> Alcotest.failf "indexselect on field %d: %a" field Eval.pp_outcome o
  in
  check tint "indexed field: no match, no fault" 0 (count_for 0);
  check tint "unindexed field: scanned by identity" 2 (count_for 1)

let test_index_select_runtime () =
  with_employees (fun ctx rel ->
      let src =
        Printf.sprintf "(select %s <oid %d> ce! k!)" (field_pred ~field:1 ~value:38)
          (Oid.to_int rel)
      in
      let a = Sexp.parse_app src in
      (* without an index: no rewrite *)
      let a_no = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) a in
      check tint "no index, no rewrite" 1 (count_prim "select" a_no);
      (* with the index: select becomes indexselect *)
      Rel.add_index ctx rel 1;
      let a_yes = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) a in
      check tint "indexselect introduced" 1 (count_prim "indexselect" a_yes);
      check tint "select eliminated" 0 (count_prim "select" a_yes))

let join_pred ~f1 ~f2 =
  Printf.sprintf
    "proc(x y jce! jcc!) ([] x %d cont(ja) ([] y %d cont(jb) (== ja jb cont() (jcc! true) \
     cont() (jcc! false))))"
    f1 f2

let test_prim_idxjoin () =
  let ctx = fresh_ctx () in
  let r1 =
    Rel.create ctx ~name:"a"
      [ [| Value.Int 1; Value.Int 10 |]; [| Value.Int 2; Value.Int 20 |];
        [| Value.Int 2; Value.Int 21 |] ]
  in
  let r2 =
    Rel.create ctx ~name:"b"
      [ [| Value.Int 2; Value.Int 200 |]; [| Value.Int 3; Value.Int 300 |];
        [| Value.Int 2; Value.Int 201 |] ]
  in
  let bindings = [ "r1", Value.Oidv r1; "r2", Value.Oidv r2 ] in
  let naive_src =
    Printf.sprintf "(join %s r1 r2 ce! k!)" (join_pred ~f1:0 ~f2:0)
  in
  let naive = run_to_rel ctx bindings naive_src in
  (* degrade path: no index on r2.0 yet *)
  let degraded = run_to_rel ctx bindings "(idxjoin r1 r2 0 0 ce! k!)" in
  rows_equal ctx "idxjoin degrade ≡ join" naive degraded;
  (* indexed path: probes reproduce the nested loop, row order included *)
  Rel.add_index ctx r2 0;
  let probes0 = !Rel.index_probes in
  let indexed = run_to_rel ctx bindings "(idxjoin r1 r2 0 0 ce! k!)" in
  rows_equal ctx "idxjoin indexed ≡ join" naive indexed;
  check tbool "index was probed" true (!Rel.index_probes > probes0)

let test_join_field_eq_recognition () =
  (match Qrewrite.join_field_eq_predicate (Sexp.parse_value (join_pred ~f1:1 ~f2:0)) with
  | Some (1, 0) -> ()
  | _ -> Alcotest.fail "equi-join predicate not recognized");
  (* the builder produces exactly the recognized shape *)
  (match Qrewrite.join_field_eq_predicate (Qrewrite.mk_join_field_eq ~f1:2 ~f2:3) with
  | Some (2, 3) -> ()
  | _ -> Alcotest.fail "built predicate not recognized");
  (* a one-sided (select-style) predicate is not an equi-join *)
  check tbool "select predicate rejected" true
    (Qrewrite.join_field_eq_predicate (Sexp.parse_value (field_pred ~field:0 ~value:3)) = None)

let test_index_join_runtime () =
  let ctx = fresh_ctx () in
  let r1 = Rel.create ctx ~name:"a" [ [| Value.Int 1 |] ] in
  let r2 = Rel.create ctx ~name:"b" [ [| Value.Int 1 |] ] in
  ignore r1;
  let src =
    Printf.sprintf "(join %s r1 <oid %d> ce! k!)" (join_pred ~f1:0 ~f2:0) (Oid.to_int r2)
  in
  let a = Sexp.parse_app src in
  (* no index on the probed side: no rewrite *)
  let a_no = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) a in
  check tint "no index, join kept" 1 (count_prim "join" a_no);
  (* index on the probed field: join becomes idxjoin *)
  Rel.add_index ctx r2 0;
  let a_yes = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) a in
  check tint "idxjoin introduced" 1 (count_prim "idxjoin" a_yes);
  check tint "join eliminated" 0 (count_prim "join" a_yes)

(* A 3-relation chain where the statistics favour the right-deep order:
   A ⋈ B explodes (every key equal), B ⋈ C is selective (unique keys). *)
let mk_join_order_fixture ctx =
  let a =
    Rel.create ctx ~name:"A" (List.init 40 (fun i -> [| Value.Int 7; Value.Int i |]))
  in
  let b =
    Rel.create ctx ~name:"B" (List.init 10 (fun i -> [| Value.Int 7; Value.Int i |]))
  in
  let c =
    Rel.create ctx ~name:"C" (List.init 10 (fun i -> [| Value.Int i; Value.Int (1000 + i) |]))
  in
  Rel.add_index ctx b 0;
  Rel.add_index ctx b 1;
  Rel.add_index ctx c 0;
  a, b, c

let join_chain_src ~a ~b ~c =
  (* (A ⋈_{x.0 = y.0} B) ⋈_{t.3 = z.0} C; field 3 of t = A++B is B.1 *)
  Printf.sprintf "(join %s <oid %d> <oid %d> ce! cont(t) (join %s t <oid %d> ce! k!))"
    (join_pred ~f1:0 ~f2:0) (Oid.to_int a) (Oid.to_int b)
    (join_pred ~f1:3 ~f2:0) (Oid.to_int c)

let test_join_order_runtime () =
  let ctx = fresh_ctx () in
  let a, b, c = mk_join_order_fixture ctx in
  let term = Sexp.parse_app (join_chain_src ~a ~b ~c) in
  let planned = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) term in
  (* the chain reassociates: B ⋈ C runs first (as an idxjoin probe on
     C's index), A joins the small intermediate last *)
  check tint "idxjoin introduced by reorder" 1 (count_prim "idxjoin" planned);
  check tint "one join left" 1 (count_prim "join" planned);
  (match planned.Term.func, planned.Term.args with
  | Term.Prim "idxjoin", Term.Lit (Literal.Oid first) :: Term.Lit (Literal.Oid second) :: _
    ->
    check tbool "outer loop is B" true (Oid.equal first b);
    check tbool "probed side is C" true (Oid.equal second c)
  | _ -> Alcotest.fail "reordered plan does not start with idxjoin B C");
  (* semantics: planned and naive runs emit identical rows in identical
     order *)
  let run term =
    let frees = Ident.Set.elements (Term.free_vars_app term) in
    let env =
      List.fold_left
        (fun env id ->
          match id.Ident.name with
          | "k" -> Ident.Map.add id (Value.Halt true) env
          | "ce" -> Ident.Map.add id (Value.Halt false) env
          | _ -> env)
        Ident.Map.empty frees
    in
    match Eval.run_app ctx ~env term with
    | Eval.Done (Value.Oidv out) -> out
    | o -> Alcotest.failf "join chain: %a" Eval.pp_outcome o
  in
  let naive_out = run term and planned_out = run planned in
  check tint "400 result rows" 400 (Rel.length ctx naive_out);
  rows_equal ctx "planned ≡ naive" naive_out planned_out;
  (* without the enabling statistics (no indexes, distinct unknown) the
     cost model sees no advantage and leaves the order alone *)
  let ctx2 = fresh_ctx () in
  let a2 = Rel.create ctx2 ~name:"A" (List.init 4 (fun i -> [| Value.Int i; Value.Int i |])) in
  let b2 = Rel.create ctx2 ~name:"B" (List.init 4 (fun i -> [| Value.Int i; Value.Int i |])) in
  let c2 = Rel.create ctx2 ~name:"C" (List.init 4 (fun i -> [| Value.Int i; Value.Int i |])) in
  let term2 = Sexp.parse_app (join_chain_src ~a:a2 ~b:b2 ~c:c2) in
  let planned2 = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx2) term2 in
  check tint "no stats advantage, order kept" 2 (count_prim "join" planned2)

let test_query_metrics_source () =
  let ctx = fresh_ctx () in
  Qprims.reset_query_counters ();
  let rel = Rel.create ctx ~name:"m" [ [| Value.Int 1 |] ] in
  Rel.add_index ctx rel 0;
  ignore (Rel.lookup ctx rel ~field:0 (Literal.Int 1));
  let counters = Qprims.query_counters () in
  let get name = List.assoc name counters in
  check tint "relations_created" 1 (get "relations_created");
  check tint "index_builds" 1 (get "index_builds");
  check tbool "index_probes counted" true (get "index_probes" >= 1);
  check tbool "stats_updates counted" true (get "stats_updates" >= 1);
  (* registered in the metrics registry under the "query" source (what
     tmlsh :stats query prints) *)
  let json = Tml_obs.Metrics.snapshot_json () in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check tbool "query metrics source registered" true (contains ~sub:"\"query\"" json);
  check tbool "source exposes page-fault counter" true
    (contains ~sub:"page_faults" json)

(* ------------------------------------------------------------------ *)
(* Properties: rewritten access paths ≡ naive scans                     *)
(* ------------------------------------------------------------------ *)

let with_page_size n f =
  let saved = !Relcore.default_page_size in
  Relcore.default_page_size := n;
  Fun.protect ~finally:(fun () -> Relcore.default_page_size := saved) f

(* generated relations: up to 30 rows of width 2 over a small key space,
   page size 3 so cases span sealed pages and the growable tail *)
let gen_rows =
  QCheck2.Gen.(
    list_size (int_bound 30)
      (map2 (fun a b -> [| Value.Int a; Value.Int b |]) (int_bound 7) (int_bound 7)))

let prop_indexselect_equiv_scan =
  QCheck2.Test.make ~name:"indexselect ≡ scan-select (multi-page)" ~count:100
    QCheck2.Gen.(triple gen_rows (int_bound 1) (int_bound 7))
    (fun (rows, field, key) ->
      with_page_size 3 (fun () ->
          let ctx = fresh_ctx () in
          let rel = Rel.create ctx ~name:"p" rows in
          Rel.add_index ctx rel field;
          let bindings = [ "r", Value.Oidv rel ] in
          let scan =
            run_to_rel ctx bindings
              (Printf.sprintf "(select %s r ce! k!)" (field_pred ~field ~value:key))
          in
          let indexed =
            run_to_rel ctx bindings
              (Printf.sprintf "(indexselect r %d %d ce! k!)" field key)
          in
          let a1 = Rel.rows ctx scan and a2 = Rel.rows ctx indexed in
          Array.length a1 = Array.length a2
          && Array.for_all2 (fun x y -> Value.identical x y) a1 a2))

(* Key domains for the runtime-key property, one per key type.  Each is
   small so generated relations repeat keys; the real domain holds the
   values a structural hash conflates (0.0 and -0.0) and NaN. *)
let key_domains ctx =
  [|
    List.init 5 (fun i -> Value.Int i);
    List.map (fun s -> Value.Str s) [ ""; "a"; "b"; "ab" ];
    [ Value.Bool true; Value.Bool false ];
    [ Value.Real 0.0; Value.Real (-0.0); Value.Real 1.5; Value.Real Float.nan ];
    List.init 4 (fun i ->
        Value.Oidv (Value.Heap.alloc ctx.Runtime.heap (Value.Tuple [| Value.Int i |])));
  |]

(* σ(x.[f] == key) planned by q.index-select with [key] bound only when
   the probe runs, against the scan, over relations spanning sealed
   pages and the tail: same rows, same order, for every key type *)
let prop_indexselect_runtime_key =
  QCheck2.Test.make ~name:"indexselect with a runtime key ≡ select (int/string/bool/real/oid)"
    ~count:150
    QCheck2.Gen.(
      quad (int_bound 4)
        (list_size (int_bound 30) (pair (int_bound 4) (int_bound 4)))
        (int_bound 1) (int_bound 4))
    (fun (ty, cells, field, key_ix) ->
      with_page_size 3 (fun () ->
          let ctx = fresh_ctx () in
          let domain = (key_domains ctx).(ty) in
          let pick i = List.nth domain (i mod List.length domain) in
          let rel = Rel.create ctx ~name:"p" (List.map (fun (a, b) -> [| pick a; pick b |]) cells) in
          Rel.add_index ctx rel field;
          let select =
            Sexp.parse_app
              (Printf.sprintf
                 "(select proc(x pce! pcc!) ([] x %d cont(t) (== t key cont() (pcc! true) \
                  cont() (pcc! false))) <oid %d> ce! k!)"
                 field (Oid.to_int rel))
          in
          let planned = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) select in
          let bindings = [ "key", pick key_ix ] in
          let a1 = Rel.rows ctx (run_term_to_rel ctx bindings select)
          and a2 = Rel.rows ctx (run_term_to_rel ctx bindings planned) in
          count_prim "indexselect" planned = 1
          && Array.length a1 = Array.length a2
          && Array.for_all2 Value.identical a1 a2))

let prop_planned_join_equiv_naive =
  QCheck2.Test.make ~name:"planned join chain ≡ naive join chain" ~count:60
    QCheck2.Gen.(
      triple gen_rows gen_rows
        (triple gen_rows (int_bound 3) (int_bound 1)))
    (fun (rows_a, rows_b, (rows_c, ixmask, g_b)) ->
      with_page_size 3 (fun () ->
          let ctx = fresh_ctx () in
          let a = Rel.create ctx ~name:"A" rows_a in
          let b = Rel.create ctx ~name:"B" rows_b in
          let c = Rel.create ctx ~name:"C" rows_c in
          if ixmask land 1 <> 0 then Rel.add_index ctx b 0;
          if ixmask land 2 <> 0 then Rel.add_index ctx c 0;
          Rel.add_index ctx b (1 - g_b);
          (* inner predicate probes t.(2 + g) = B field g against C.0 *)
          let src =
            Printf.sprintf
              "(join %s <oid %d> <oid %d> ce! cont(t) (join %s t <oid %d> ce! k!))"
              (join_pred ~f1:0 ~f2:0) (Oid.to_int a) (Oid.to_int b)
              (join_pred ~f1:(2 + g_b) ~f2:0) (Oid.to_int c)
          in
          let term = Sexp.parse_app src in
          let planned = Rewrite.reduce_app ~rules:(Qopt.runtime_rules ctx) term in
          let run term =
            let frees = Ident.Set.elements (Term.free_vars_app term) in
            let env =
              List.fold_left
                (fun env id ->
                  match id.Ident.name with
                  | "k" -> Ident.Map.add id (Value.Halt true) env
                  | "ce" -> Ident.Map.add id (Value.Halt false) env
                  | _ -> env)
                Ident.Map.empty frees
            in
            match Eval.run_app ctx ~env term with
            | Eval.Done (Value.Oidv out) -> Some out
            | _ -> None
          in
          match run term, run planned with
          | Some naive, Some opt ->
            let a1 = Rel.rows ctx naive and a2 = Rel.rows ctx opt in
            Array.length a1 = Array.length a2
            && Array.for_all2
                 (fun x y ->
                   let f1 = Rel.row_tuple ctx x and f2 = Rel.row_tuple ctx y in
                   Array.length f1 = Array.length f2
                   && Array.for_all2 Value.identical f1 f2)
                 a1 a2
          | o1, o2 -> o1 = o2))

let () =
  Alcotest.run "tml_query"
    [
      ( "rel",
        [
          Alcotest.test_case "basics" `Quick test_rel_basics;
          Alcotest.test_case "paged segments" `Quick test_rel_paging;
          Alcotest.test_case "cardinality statistics" `Quick test_rel_stats;
          Alcotest.test_case "indexes" `Quick test_rel_index;
        ] );
      ( "prims",
        [
          Alcotest.test_case "select and count" `Quick test_prim_select_count;
          Alcotest.test_case "row identity preserved" `Quick test_prim_select_preserves_identity;
          Alcotest.test_case "project" `Quick test_prim_project;
          Alcotest.test_case "join" `Quick test_prim_join;
          Alcotest.test_case "exists, empty, sum" `Quick test_prim_exists_empty_sum;
          Alcotest.test_case "predicate exceptions propagate" `Quick
            test_prim_exceptions_propagate;
          Alcotest.test_case "indexselect" `Quick test_prim_indexselect;
          Alcotest.test_case "idxjoin" `Quick test_prim_idxjoin;
          Alcotest.test_case "union, inter, diff, distinct" `Quick test_prim_set_ops;
          Alcotest.test_case "aggregates" `Quick test_prim_aggregates;
          Alcotest.test_case "triggers" `Quick test_triggers;
        ] );
      ( "rewrites",
        [
          Alcotest.test_case "merge-select applies" `Quick test_merge_select_applies;
          Alcotest.test_case "merge-select preconditions" `Quick
            test_merge_select_preconditions;
          Alcotest.test_case "merge-select semantics" `Quick test_merge_select_semantics;
          Alcotest.test_case "merge-project" `Quick test_merge_project;
          Alcotest.test_case "constant selections" `Quick test_constant_select;
          Alcotest.test_case "trivial-exists" `Quick test_trivial_exists;
          Alcotest.test_case "trivial-exists semantics" `Quick test_trivial_exists_semantics;
          Alcotest.test_case "select over union" `Quick test_select_union_rule;
          Alcotest.test_case "distinct rules" `Quick test_distinct_rules;
        ] );
      ( "runtime-rules",
        [
          Alcotest.test_case "field equality recognition" `Quick test_field_eq_recognition;
          Alcotest.test_case "field equality with a runtime key" `Quick
            test_field_eq_runtime_key;
          Alcotest.test_case "index-select needs the runtime binding" `Quick
            test_index_select_runtime;
          Alcotest.test_case "index-select with a key bound at run time" `Quick
            test_index_select_runtime_key;
          Alcotest.test_case "key without a literal form scans" `Quick
            test_indexselect_key_without_literal;
          Alcotest.test_case "equi-join predicate recognition" `Quick
            test_join_field_eq_recognition;
          Alcotest.test_case "index-join needs the runtime binding" `Quick
            test_index_join_runtime;
          Alcotest.test_case "cost-based join order" `Quick test_join_order_runtime;
          Alcotest.test_case "query metrics source" `Quick test_query_metrics_source;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_indexselect_equiv_scan;
          QCheck_alcotest.to_alcotest prop_indexselect_runtime_key;
          QCheck_alcotest.to_alcotest prop_planned_join_equiv_naive;
        ] );
    ]
