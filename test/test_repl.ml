(* Tests for the incremental session (Repl): persistent store across
   inputs, incremental linking, redefinition with dynamic relinking,
   interaction with the reflective optimizer. *)

open Tml_vm
open Tml_frontend

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

let expect_value session src expected =
  match (Repl.feed session src).Repl.result with
  | Some (Eval.Done v, _) ->
    check tbool
      (Printf.sprintf "%s = %s" src (Value.to_string expected))
      true (Value.identical v expected)
  | Some (o, _) -> Alcotest.failf "%s: %a" src Eval.pp_outcome o
  | None -> Alcotest.failf "%s: no result" src

let test_define_and_call () =
  let s = Repl.create () in
  let r = Repl.feed s "let double(x: Int): Int = x * 2" in
  check Alcotest.(list string) "defined" [ "double" ] r.Repl.defined;
  expect_value s "double(21)" (Value.Int 42);
  (* bare expressions are sugar for do-blocks *)
  expect_value s "1 + 2 * 3" (Value.Int 7)

let test_mutation_persists () =
  let s = Repl.create () in
  ignore (Repl.feed s "let r = relation(tuple(1, 10), tuple(2, 20))");
  expect_value s "count(r)" (Value.Int 2);
  ignore (Repl.feed s "do insert(r, tuple(3, 30)) end");
  expect_value s "count(r)" (Value.Int 3);
  (* an index built in one input is a runtime binding for later ones *)
  ignore (Repl.feed s "do mkindex(r, 1) end");
  expect_value s "count(select x from x in r where x.1 == 3 end)" (Value.Int 1)

let test_incremental_defs_see_older () =
  let s = Repl.create () in
  ignore (Repl.feed s "let base = 100");
  ignore (Repl.feed s "let above(x: Int): Int = x + base");
  expect_value s "above(11)" (Value.Int 111)

let test_redefinition_relinks () =
  let s = Repl.create () in
  ignore (Repl.feed s "let f(x: Int): Int = x + 1");
  ignore (Repl.feed s "let g(x: Int): Int = f(x) * 10");
  expect_value s "g(1)" (Value.Int 20);
  (* redefining f must be visible through the existing g *)
  ignore (Repl.feed s "let f(x: Int): Int = x + 2");
  expect_value s "g(1)" (Value.Int 30)

(* A redefinition relinks the existing callers by installing new
   function objects in their slots: a compiled call site that cached a
   caller's entry must see the new binding.  The site here is in a
   function outside the session that calls [g] through a literal OID, as
   reflectively optimized code does. *)
let test_redefinition_reaches_compiled_sites () =
  let s = Repl.create () in
  ignore (Repl.feed s "let f(x: Int): Int = x + 1");
  ignore (Repl.feed s "let g(x: Int): Int = f(x) * 10");
  let ctx = Repl.ctx s in
  let g =
    match Repl.function_oid s "g" with
    | Some o -> o
    | None -> Alcotest.fail "g not linked"
  in
  let caller =
    Value.Heap.alloc_func ctx.Runtime.heap ~name:"caller"
      (Tml_core.Sexp.parse_value
         (Printf.sprintf "proc(x ce! cc!) (<oid %d> x ce! cc!)" (Tml_core.Oid.to_int g)))
  in
  check tbool "caller promoted" true (Tierup.force_promote ctx caller);
  let call () =
    match Machine.run_proc ctx (Value.Oidv caller) [ Value.Int 1 ] with
    | Eval.Done (Value.Int n) -> n
    | o -> Alcotest.failf "caller(1): %a" Eval.pp_outcome o
  in
  check tint "compiled caller(1)" 20 (call ());
  check tint "served from its call site" 20 (call ());
  ignore (Repl.feed s "let f(x: Int): Int = x + 2");
  check tint "the compiled site sees the new f" 30 (call ())

(* An Eval's function and a value's initializer are allocated with their
   bindings resolved, so neither replaces a slot: the heap generation,
   which keys every compiled inline cache, stays put. *)
let test_eval_replaces_no_slot () =
  let s = Repl.create () in
  ignore (Repl.feed s "let sq(x: Int): Int = x * x");
  let ctx = Repl.ctx s in
  (match Repl.function_oid s "sq" with
  | Some sq -> check tbool "sq promoted" true (Tierup.force_promote ctx sq)
  | None -> Alcotest.fail "sq not linked");
  let heap = ctx.Runtime.heap in
  let gen = Value.Heap.generation heap in
  expect_value s "sq(7)" (Value.Int 49);
  check tint "an Eval calling compiled sq moves no generation" gen
    (Value.Heap.generation heap);
  ignore (Repl.feed s "let nine = sq(3)");
  check tint "a value definition moves no generation" gen (Value.Heap.generation heap);
  expect_value s "nine + sq(2)" (Value.Int 13)

let test_output_captured () =
  let s = Repl.create () in
  let r = Repl.feed s "do io.print_str(\"hi\") end" in
  check tstring "output" "hi" r.Repl.output;
  let r2 = Repl.feed s "do io.print_str(\"there\") end" in
  check tstring "only the new output" "there" r2.Repl.output

let test_exceptions_surface () =
  let s = Repl.create () in
  match (Repl.feed s "1 / 0").Repl.result with
  | Some (Eval.Raised (Value.Str "division by zero"), _) -> ()
  | Some (o, _) -> Alcotest.failf "unexpected: %a" Eval.pp_outcome o
  | None -> Alcotest.fail "no result"

let test_type_errors_do_not_corrupt () =
  let s = Repl.create () in
  ignore (Repl.feed s "let ok(x: Int): Int = x");
  (match Repl.feed s "do ok(true) end" with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "type error expected");
  (* the session is still usable *)
  expect_value s "ok(5)" (Value.Int 5)

let test_reflective_optimize_in_session () =
  let s = Repl.create () in
  ignore (Repl.feed s "let square(x: Int): Int = x * x");
  let steps_of () =
    match (Repl.feed s "square(9)").Repl.result with
    | Some (Eval.Done (Value.Int 81), steps) -> steps
    | _ -> Alcotest.fail "square(9) failed"
  in
  let before = steps_of () in
  (match Repl.function_oid s "square" with
  | Some oid -> ignore (Tml_reflect.Reflect.optimize_inplace (Repl.ctx s) oid)
  | None -> Alcotest.fail "square not linked");
  let after = steps_of () in
  check tbool "optimization pays off inside the session" true (after < before)

let test_session_image_roundtrip () =
  let s = Repl.create () in
  ignore (Repl.feed s "let triple(x: Int): Int = x * 3");
  expect_value s "triple(5)" (Value.Int 15);
  let oid =
    match Repl.function_oid s "triple" with
    | Some oid -> oid
    | None -> Alcotest.fail "triple not linked"
  in
  let heap' = Image.load (Image.save (Repl.ctx s).Runtime.heap) in
  let ctx' = Runtime.create heap' in
  match Machine.run_proc ctx' (Value.Oidv oid) [ Value.Int 7 ] with
  | Eval.Done (Value.Int 21) -> ()
  | o -> Alcotest.failf "loaded session function: %a" Eval.pp_outcome o

let manifest_exports pstore =
  match Pstore.root pstore with
  | Some moid -> (
    match Value.Heap.get (Pstore.heap pstore) moid with
    | Value.Module m -> moid, Array.map fst m.Value.exports
    | _ -> Alcotest.fail "the store root is not a module")
  | None -> Alcotest.fail "the store has no root"

(* A store written while the specialization cache existed: its manifest
   has a fourth export, "#speccache", naming a Bytes object with the
   cache image.  It restores, runs a stored function and commits, and
   the manifest it then writes has three exports. *)
let test_old_manifest_still_opens () =
  let path = Filename.temp_file "tmlrepl" ".store" in
  let s = Repl.create () in
  ignore (Repl.feed s "let quad(x: Int): Int = x * 4");
  let pstore = Pstore.attach ~fsync:false path (Repl.ctx s).Runtime.heap in
  ignore (Repl.persist s pstore);
  let moid, keys = manifest_exports pstore in
  check Alcotest.(array string) "a manifest has three exports"
    [| "#sources"; "#globals"; "#funcs" |] keys;
  let heap = Pstore.heap pstore in
  let m =
    match Value.Heap.get heap moid with
    | Value.Module m -> m
    | _ -> assert false
  in
  let image = Value.Heap.alloc heap (Value.Bytes (Bytes.of_string "SPC2\000")) in
  Value.Heap.set heap moid
    (Value.Module
       { m with Value.exports = Array.append m.Value.exports [| "#speccache", Value.Oidv image |] });
  ignore (Pstore.commit ~root:moid pstore);
  Pstore.close pstore;
  let pstore2 = Pstore.open_ ~fsync:false path in
  check tint "the old manifest has four exports" 4
    (Array.length (snd (manifest_exports pstore2)));
  let s2 = Repl.restore pstore2 in
  expect_value s2 "quad(3)" (Value.Int 12);
  ignore (Repl.feed s2 "let half(x: Int): Int = x / 2");
  check tbool "the commit writes objects" true (Repl.persist s2 pstore2 > 0);
  Pstore.close pstore2;
  let pstore3 = Pstore.open_ ~fsync:false path in
  check Alcotest.(array string) "the rewritten manifest has three exports"
    [| "#sources"; "#globals"; "#funcs" |] (snd (manifest_exports pstore3));
  let s3 = Repl.restore pstore3 in
  expect_value s3 "half(quad(3))" (Value.Int 6);
  Pstore.close pstore3;
  Sys.remove path

let test_counts () =
  let s = Repl.create () in
  let n0 = List.length (Repl.function_oids s) in
  check tbool "stdlib linked" true (n0 > 30);
  ignore (Repl.feed s "let a(x: Int): Int = x");
  check tint "one more function" (n0 + 1) (List.length (Repl.function_oids s))

(* Two sessions over one log, as tmld runs them.  Session B runs [get]
   compiled, through a compiled call site that caches it.  Session A
   then runs a read-only Eval whose objects are reclaimed, and a write
   it commits: B's heap generation, which keys its inline caches, does
   not move, and B's get keeps its compiled unit. *)
let test_other_session_leaves_compiled_code () =
  let path = Filename.temp_file "tml_repl_two" ".tmlstore" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let s = Repl.create () in
      ignore (Repl.feed s "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (Repl.feed s "do mkindex(r, 1) end");
      ignore (Repl.feed s "let get(k: Int): Int = count(select t from t in r where t.1 == k end)");
      let ps = Pstore.attach ~fsync:false path (Repl.ctx s).Runtime.heap in
      ignore (Repl.persist s ps);
      Pstore.close ps;
      let log = Tml_store.Log_store.open_ ~fsync:false path in
      let base = Tml_store.Log_store.max_oid log + 1 in
      (* B allocates far past A, as the server's one cursor keeps them apart *)
      let a_ps = Pstore.open_snapshot log ~alloc_base:base in
      let b_ps = Pstore.open_snapshot log ~alloc_base:(base + 100_000) in
      let a = Repl.restore a_ps and b = Repl.restore b_ps in
      let ctx_b = Repl.ctx b and heap_b = Pstore.heap b_ps in
      let get = Option.get (Repl.function_oid b "get") in
      let caller =
        Value.Heap.alloc_func heap_b ~name:"caller"
          (Tml_core.Sexp.parse_value
             (Printf.sprintf "proc(k ce! cc!) (<oid %d> k ce! cc!)" (Tml_core.Oid.to_int get)))
      in
      check tbool "B's get promoted" true (Tierup.force_promote ctx_b get);
      check tbool "B's caller promoted" true (Tierup.force_promote ctx_b caller);
      let call k =
        match Machine.run_proc ctx_b (Value.Oidv caller) [ Value.Int k ] with
        | Eval.Done (Value.Int n) -> n
        | o -> Alcotest.failf "caller(%d): %a" k Eval.pp_outcome o
      in
      check tint "B's get(1)" 1 (call 1);
      let code () =
        match Value.Heap.peek heap_b get with
        | Some (Value.Func fo) -> fo.Value.fo_code
        | _ -> None
      in
      let get_code = Option.get (code ()) in
      let gen = Value.Heap.generation heap_b in
      let heap_a = Pstore.heap a_ps in
      let lo = Value.Heap.size heap_a in
      expect_value a "get(2)" (Value.Int 1);
      check tbool "A's read-only Eval is reclaimed" true (Pstore.reclaim_from a_ps lo = None);
      ignore (Repl.feed a "do insert(r, tuple(3, 30)) end");
      ignore (Tml_store.Log_store.commit log (Pstore.collect a_ps));
      Pstore.mark_committed a_ps (Tml_store.Log_store.pin log);
      expect_value a "get(3)" (Value.Int 1);
      check tint "B's generation did not move" gen (Value.Heap.generation heap_b);
      check tbool "B's get keeps its compiled unit" true
        (match code () with
        | Some u -> u == get_code && Jit.is_compiled u
        | None -> false);
      check tint "B's compiled get reads B's snapshot" 0 (call 3);
      check tint "without moving its generation" gen (Value.Heap.generation heap_b);
      Pstore.close a_ps;
      Pstore.close b_ps;
      Tml_store.Log_store.close log)

let () =
  Runtime.install ();
  Alcotest.run "tml_repl"
    [
      ( "session",
        [
          Alcotest.test_case "define and call" `Quick test_define_and_call;
          Alcotest.test_case "mutations persist" `Quick test_mutation_persists;
          Alcotest.test_case "later definitions see earlier ones" `Quick
            test_incremental_defs_see_older;
          Alcotest.test_case "redefinition relinks callers" `Quick test_redefinition_relinks;
          Alcotest.test_case "output captured per input" `Quick test_output_captured;
          Alcotest.test_case "exceptions surface" `Quick test_exceptions_surface;
          Alcotest.test_case "errors do not corrupt the session" `Quick
            test_type_errors_do_not_corrupt;
          Alcotest.test_case "reflective optimization in session" `Quick
            test_reflective_optimize_in_session;
          Alcotest.test_case "session store images" `Quick test_session_image_roundtrip;
          Alcotest.test_case "a manifest with a cache export still opens" `Quick
            test_old_manifest_still_opens;
          Alcotest.test_case "function accounting" `Quick test_counts;
          Alcotest.test_case "redefinition reaches compiled call sites" `Quick
            test_redefinition_reaches_compiled_sites;
          Alcotest.test_case "an Eval replaces no slot" `Quick test_eval_replaces_no_slot;
          Alcotest.test_case "another session leaves compiled code alone" `Quick
            test_other_session_leaves_compiled_code;
        ] );
    ]
