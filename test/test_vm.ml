(* Tests for the execution substrate: the tree-walking evaluator, the
   abstract machine (compiler + interpreter), the runtime primitive
   implementations, the handler stack, fuel accounting, and the heap. *)

open Tml_core
open Tml_vm

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

type engine = [ `Tree | `Machine ]

let engines : (string * engine) list = [ "tree", `Tree; "machine", `Machine ]

(* Run a closed proc (given as TML source) on the chosen engine through a
   store function object, returning the outcome and the context. *)
let run_src ?(fuel = 1_000_000) (engine : engine) src args =
  Runtime.install ();
  let proc = Sexp.parse_value src in
  (match Wf.check_value proc with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "test program ill-formed: %s"
      (String.concat "; " (List.map (fun e -> e.Wf.message) es)));
  let heap = Value.Heap.create () in
  let ctx = Runtime.create ~fuel heap in
  let oid = Value.Heap.alloc_func heap ~name:"test" proc in
  let outcome =
    match engine with
    | `Tree -> Eval.run_proc ctx (Value.Oidv oid) args
    | `Machine -> Machine.run_proc ctx (Value.Oidv oid) args
  in
  outcome, ctx

let expect_done engine src args expected =
  let outcome, _ = run_src engine src args in
  match outcome with
  | Eval.Done v ->
    check tbool
      (Printf.sprintf "%s = %s" src (Value.to_string expected))
      true (Value.identical v expected)
  | o -> Alcotest.failf "%s: expected Done, got %a" src Eval.pp_outcome o

let expect_raised engine src args expected =
  let outcome, _ = run_src engine src args in
  match outcome with
  | Eval.Raised v -> check tbool src true (Value.identical v expected)
  | o -> Alcotest.failf "%s: expected Raised, got %a" src Eval.pp_outcome o

let on_both f = List.iter (fun (_, engine) -> f engine) engines

(* ------------------------------------------------------------------ *)
(* Basics                                                               *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  on_both (fun e ->
      expect_done e "proc(a b ce! cc!) (+ a b ce! cc!)" [ Value.Int 40; Value.Int 2 ]
        (Value.Int 42);
      expect_done e "proc(a b ce! cc!) (* a b ce! cont(t) (- t 1 ce! cc!))"
        [ Value.Int 6; Value.Int 7 ] (Value.Int 41);
      expect_raised e "proc(a b ce! cc!) (/ a b ce! cc!)" [ Value.Int 1; Value.Int 0 ]
        (Value.Str "division by zero");
      expect_raised e "proc(a b ce! cc!) (+ a b ce! cc!)"
        [ Value.Int max_int; Value.Int 1 ] (Value.Str "integer overflow"))

let test_comparisons_and_case () =
  on_both (fun e ->
      expect_done e "proc(a b ce! cc!) (< a b cont() (cc! 1) cont() (cc! 0))"
        [ Value.Int 1; Value.Int 2 ] (Value.Int 1);
      expect_done e "proc(a b ce! cc!) (< a b cont() (cc! 1) cont() (cc! 0))"
        [ Value.Int 5; Value.Int 2 ] (Value.Int 0);
      expect_done e
        "proc(x u ce! cc!) (== x 1 2 cont() (cc! 'a') cont() (cc! 'b') cont() (cc! 'z'))"
        [ Value.Int 2; Value.Unit ] (Value.Char 'b');
      expect_done e
        "proc(x u ce! cc!) (== x 1 2 cont() (cc! 'a') cont() (cc! 'b') cont() (cc! 'z'))"
        [ Value.Int 7; Value.Unit ] (Value.Char 'z'))

let test_reals_chars_bools () =
  on_both (fun e ->
      expect_done e "proc(a b ce! cc!) (f* a b cont(t) (sqrt t cc!))"
        [ Value.Real 2.0; Value.Real 8.0 ] (Value.Real 4.0);
      expect_done e "proc(c u ce! cc!) (char2int c cont(i) (+ i 1 ce! cont(j) (int2char j cc!)))"
        [ Value.Char 'a'; Value.Unit ] (Value.Char 'b');
      expect_done e "proc(a b ce! cc!) (and a b cont(r) (not r cc!))"
        [ Value.Bool true; Value.Bool true ] (Value.Bool false);
      expect_done e "proc(a b ce! cc!) (bxor a b cc!)" [ Value.Int 12; Value.Int 10 ]
        (Value.Int 6))

let test_strings () =
  on_both (fun e ->
      expect_done e "proc(a b ce! cc!) (sconcat a b cc!)"
        [ Value.Str "foo"; Value.Str "bar" ] (Value.Str "foobar");
      expect_done e "proc(s u ce! cc!) (slen s cc!)" [ Value.Str "hello"; Value.Unit ]
        (Value.Int 5);
      expect_done e "proc(s i ce! cc!) (s[] s i cc!)" [ Value.Str "abc"; Value.Int 1 ]
        (Value.Char 'b');
      expect_done e "proc(s u ce! cc!) (substr s 1 2 cc!)" [ Value.Str "abcd"; Value.Unit ]
        (Value.Str "bc");
      expect_done e "proc(c u ce! cc!) (char2str c cc!)" [ Value.Char 'x'; Value.Unit ]
        (Value.Str "x");
      expect_done e "proc(n u ce! cc!) (int2str n cc!)" [ Value.Int (-42); Value.Unit ]
        (Value.Str "-42");
      expect_done e "proc(s u ce! cc!) (str2int s ce! cc!)" [ Value.Str "17"; Value.Unit ]
        (Value.Int 17);
      expect_raised e "proc(s u ce! cc!) (str2int s ce! cc!)" [ Value.Str "xyz"; Value.Unit ]
        (Value.Str "not an integer: xyz");
      expect_done e "proc(a b ce! cc!) (scmp a b cc!)" [ Value.Str "a"; Value.Str "b" ]
        (Value.Int (-1));
      let outcome, _ =
        run_src e "proc(s u ce! cc!) (s[] s 9 cc!)" [ Value.Str "ab"; Value.Unit ]
      in
      match outcome with
      | Eval.Fault _ -> ()
      | o -> Alcotest.failf "expected string index fault, got %a" Eval.pp_outcome o)

let test_string_folds () =
  (* the meta-evaluations agree with the runtime *)
  let check_fold src expected =
    let reduced = Rewrite.reduce_app (Sexp.parse_app src) in
    if not (Term.alpha_equal_by_name_app reduced (Sexp.parse_app expected)) then
      Alcotest.failf "%s reduced to %s" src (Sexp.print_app reduced)
  in
  check_fold "(sconcat \"ab\" \"cd\" cc!)" "(cc! \"abcd\")";
  check_fold "(sconcat \"\" x cc!)" "(cc! x)";
  check_fold "(slen \"hello\" cc!)" "(cc! 5)";
  check_fold "(s[] \"abc\" 0 cc!)" "(cc! 'a')";
  check_fold "(substr \"abcd\" 1 2 cc!)" "(cc! \"bc\")";
  check_fold "(str2int \"42\" ce! cc!)" "(cc! 42)";
  check_fold "(str2int \"zz\" ce! cc!)" "(ce! \"not an integer: zz\")";
  check_fold "(int2str 7 cc!)" "(cc! \"7\")";
  check_fold "(scmp \"a\" \"a\" cc!)" "(cc! 0)"

let test_y_loop () =
  (* sum 1..n via the canonical Y shape *)
  let src =
    "proc(n z ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! n 0) cont(i acc) (<= i 0 \
     cont() (cc! acc) cont() (+ acc i ce! cont(a2) (- i 1 ce! cont(i2) (loop! i2 a2))))))"
  in
  on_both (fun e ->
      expect_done e src [ Value.Int 10; Value.Unit ] (Value.Int 55);
      expect_done e src [ Value.Int 0; Value.Unit ] (Value.Int 0))

let test_mutual_recursion () =
  (* even/odd via a two-member nest *)
  let src =
    "proc(n z ce! cc!) (Y lambda(c0! even! odd! c!) (c! cont() (even! n) cont(i) (<= i 0 \
     cont() (cc! true) cont() (- i 1 ce! cont(i2) (odd! i2))) cont(j) (<= j 0 cont() (cc! \
     false) cont() (- j 1 ce! cont(j2) (even! j2)))))"
  in
  on_both (fun e ->
      expect_done e src [ Value.Int 10; Value.Unit ] (Value.Bool true);
      expect_done e src [ Value.Int 7; Value.Unit ] (Value.Bool false))

(* ------------------------------------------------------------------ *)
(* Arrays, vectors, bytes                                               *)
(* ------------------------------------------------------------------ *)

let test_arrays () =
  on_both (fun e ->
      expect_done e
        "proc(n v ce! cc!) (new n v cont(a) ([:=] a 2 99 cont(u) ([] a 2 cont(x) (size a \
         cont(s) (+ x s ce! cc!)))))"
        [ Value.Int 5; Value.Int 7 ] (Value.Int 104);
      expect_done e
        "proc(x y ce! cc!) (array x y x cont(a) (size a cc!))"
        [ Value.Int 1; Value.Int 2 ] (Value.Int 3);
      expect_done e
        "proc(x y ce! cc!) (vector x y cont(v) ([] v 1 cc!))"
        [ Value.Int 10; Value.Int 20 ] (Value.Int 20))

let test_array_faults () =
  on_both (fun e ->
      let outcome, _ =
        run_src e "proc(n v ce! cc!) (new n v cont(a) ([] a 9 cc!))"
          [ Value.Int 3; Value.Int 0 ]
      in
      match outcome with
      | Eval.Fault msg -> check tbool "out of bounds faults" true (String.length msg > 0)
      | o -> Alcotest.failf "expected fault, got %a" Eval.pp_outcome o)

let test_move () =
  on_both (fun e ->
      expect_done e
        "proc(x y ce! cc!) (array 1 2 3 4 cont(a) (new 4 0 cont(b) (move a 1 b 0 2 cont(u) \
         ([] b 1 cc!))))"
        [ Value.Unit; Value.Unit ] (Value.Int 3))

let test_bytes () =
  on_both (fun e ->
      expect_done e
        "proc(n v ce! cc!) (bnew n v cont(b) (b[:=] b 0 65 cont(u) (b[] b 0 cont(x) (bsize b \
         cont(s) (+ x s ce! cc!)))))"
        [ Value.Int 3; Value.Int 0 ] (Value.Int 68))

(* ------------------------------------------------------------------ *)
(* Exceptions: lexical ce and the handler stack                         *)
(* ------------------------------------------------------------------ *)

let test_lexical_exceptions () =
  on_both (fun e ->
      (* installing a new ce catches the callee's exception *)
      expect_done e
        "proc(a b ce! cc!) (cont(h!) (/ a b h! cc!) cont(x) (cc! -1))"
        [ Value.Int 1; Value.Int 0 ] (Value.Int (-1)))

let test_handler_stack () =
  on_both (fun e ->
      (* pushHandler installs a dynamic handler; raise reaches it *)
      expect_done e
        "proc(a b ce! cc!) (pushHandler cont(x) (cc! x) cont() (raise \"boom\"))"
        [ Value.Unit; Value.Unit ] (Value.Str "boom");
      (* without any handler, raise terminates the program *)
      expect_raised e "proc(a b ce! cc!) (raise \"unhandled\")" [ Value.Unit; Value.Unit ]
        (Value.Str "unhandled");
      (* popHandler removes the innermost handler *)
      expect_done e
        "proc(a b ce! cc!) (pushHandler cont(x) (cc! 1) cont() (pushHandler cont(y) (cc! 2) \
         cont() (popHandler cont() (raise \"z\"))))"
        [ Value.Unit; Value.Unit ] (Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Higher-order behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_first_class_procs () =
  on_both (fun e ->
      (* a procedure passed as a value and applied twice *)
      expect_done e
        "proc(a b ce! cc!) (cont(twice) (twice a ce! cont(t) (twice t ce! cc!)) proc(x ce2! \
         cc2!) (+ x b ce2! cc2!))"
        [ Value.Int 1; Value.Int 10 ] (Value.Int 21))

let test_prim_as_value () =
  on_both (fun e ->
      (* η-reduced: a primitive flows into a call position *)
      expect_done e
        "proc(a b ce! cc!) (cont(f) (f a b ce! cc!) +)"
        [ Value.Int 20; Value.Int 22 ] (Value.Int 42))

let test_ccall_output () =
  on_both (fun e ->
      let outcome, ctx =
        run_src e
          "proc(a b ce! cc!) (ccall \"print_int\" a ce! cont(u) (ccall \"newline\" ce! \
           cont(v) (cc! nil)))"
          [ Value.Int 42; Value.Unit ]
      in
      (match outcome with
      | Eval.Done Value.Unit -> ()
      | o -> Alcotest.failf "expected Done nil, got %a" Eval.pp_outcome o);
      check tstring "output captured" "42\n" (Buffer.contents ctx.Runtime.out))

(* ------------------------------------------------------------------ *)
(* Engine agreement, fuel, steps                                        *)
(* ------------------------------------------------------------------ *)

let test_fuel () =
  (* an infinite loop stops with No_fuel *)
  let src =
    "proc(a b ce! cc!) (Y lambda(c0! spin! c!) (c! cont() (spin! 0) cont(i) (spin! i)))"
  in
  on_both (fun e ->
      let outcome, _ = run_src ~fuel:5_000 e src [ Value.Unit; Value.Unit ] in
      match outcome with
      | Eval.No_fuel -> ()
      | o -> Alcotest.failf "expected No_fuel, got %a" Eval.pp_outcome o)

let test_steps_counted () =
  let _, ctx = run_src `Machine "proc(a b ce! cc!) (+ a b ce! cc!)" [ Value.Int 1; Value.Int 2 ] in
  check tbool "steps accounted" true (ctx.Runtime.steps > 0)

let test_engines_agree_generated () =
  let rng = Random.State.make [| 2026 |] in
  for _ = 1 to 150 do
    let proc = Gen.proc2 rng ~size:30 in
    let o1, _ = run_src `Tree (Sexp.print_value proc) [ Value.Int 3; Value.Int 4 ] in
    ignore o1;
    (* run via the value directly to avoid reparsing *)
    let heap1 = Value.Heap.create () in
    let ctx1 = Runtime.create ~fuel:1_000_000 heap1 in
    let oid1 = Value.Heap.alloc_func heap1 ~name:"g" proc in
    let t = Eval.run_proc ctx1 (Value.Oidv oid1) [ Value.Int 3; Value.Int 4 ] in
    let heap2 = Value.Heap.create () in
    let ctx2 = Runtime.create ~fuel:1_000_000 heap2 in
    let oid2 = Value.Heap.alloc_func heap2 ~name:"g" proc in
    let m = Machine.run_proc ctx2 (Value.Oidv oid2) [ Value.Int 3; Value.Int 4 ] in
    if not (Eval.outcome_equal t m) then
      Alcotest.failf "engines disagree:@.%s@.tree: %a@.machine: %a" (Sexp.print_value proc)
        Eval.pp_outcome t Eval.pp_outcome m
  done

(* ------------------------------------------------------------------ *)
(* Compiler specifics                                                   *)
(* ------------------------------------------------------------------ *)

let test_compile_shapes () =
  let proc = Sexp.parse_value "proc(x ce! cc!) (+ x 1 ce! cont(t) (cc! t))" in
  match proc with
  | Term.Abs abs ->
    let unit_code, frees = Compile.compile_abs ~name:"inc" abs in
    check tint "closed" 0 (List.length frees);
    check tbool "one function (continuation inlined as a block)" true
      (Array.length unit_code.Instr.funcs = 1);
    (* serialization round trip *)
    let bytes = Instr.encode_unit unit_code in
    let decoded = Instr.decode_unit bytes in
    check tstring "codec roundtrip" (Instr.encode_unit decoded) bytes
  | _ -> Alcotest.fail "expected abs"

let test_compile_free_layout () =
  let proc = Sexp.parse_value "proc(x ce! cc!) (globalfn x ce! cc!)" in
  match proc with
  | Term.Abs abs ->
    let _, frees = Compile.compile_abs ~name:"caller" abs in
    check tint "one free identifier" 1 (List.length frees);
    check tstring "the global" "globalfn" (List.hd frees).Ident.name
  | _ -> Alcotest.fail "expected abs"

let test_heap () =
  let heap = Value.Heap.create () in
  let o1 = Value.Heap.alloc heap (Value.Array [| Value.Int 1 |]) in
  let o2 = Value.Heap.alloc heap (Value.Tuple [| Value.Int 2 |]) in
  check tbool "distinct oids" false (Oid.equal o1 o2);
  (match Value.Heap.get heap o1 with
  | Value.Array [| Value.Int 1 |] -> ()
  | _ -> Alcotest.fail "wrong object");
  check tint "size" 2 (Value.Heap.size heap);
  Value.Heap.set heap o1 (Value.Array [| Value.Int 9 |]);
  (match Value.Heap.get heap o1 with
  | Value.Array [| Value.Int 9 |] -> ()
  | _ -> Alcotest.fail "set failed");
  check tbool "dangling get_opt" true (Value.Heap.get_opt heap (Oid.of_int 99) = None);
  (* growth *)
  for i = 0 to 199 do
    ignore (Value.Heap.alloc heap (Value.Array [| Value.Int i |]))
  done;
  check tint "grown" 202 (Value.Heap.size heap)

(* ------------------------------------------------------------------ *)
(* Tiered execution: deoptimization stress                              *)
(* ------------------------------------------------------------------ *)

(* A stored function reading through an R-value binding to a store
   array — the canonical tier dependency.  [data] stays free in the
   stored term and is linked as a binding, exactly like the persistent
   engines do. *)
let tier_reader_proc () = Sexp.parse_value "proc(i ce! cc!) ([] data i cc!)"

let tier_free_ident proc =
  match Ident.Set.elements (Term.free_vars_value proc) with
  | [ id ] -> id
  | ids -> Alcotest.failf "expected one free identifier, got %d" (List.length ids)

let tier_store_reader heap proc data_id =
  let arr = Value.Heap.alloc heap (Value.Array [| Value.Int 7; Value.Int 8 |]) in
  let oid = Value.Heap.alloc_func heap ~name:"reader" proc in
  (match Value.Heap.get heap oid with
  | Value.Func fo -> fo.Value.fo_bindings <- [ data_id, Value.Oidv arr ]
  | _ -> assert false);
  arr, oid

let tier_call ctx oid i =
  match Machine.run_proc ctx (Value.Oidv oid) [ Value.Int i ] with
  | Eval.Done v -> v
  | o -> Alcotest.failf "tier call: expected Done, got %a" Eval.pp_outcome o

let tier_stats () =
  let value = Tml_obs.Metrics.counter_value in
  value Jit.promotions, value Jit.deopts, value Jit.runs

let func_unit heap oid =
  match Value.Heap.get heap oid with
  | Value.Func { Value.fo_code = Some u; _ } -> u
  | _ -> Alcotest.fail "expected a compiled function object"

(* Promote a function, mutate the store object it reads mid-loop, and
   require: the compiled code stays valid (its array read revalidates
   against the heap), sees the new value, drops nothing (no deopt), and
   the whole observed sequence is identical to an unpromoted run. *)
let test_tier_deopt_on_mutation () =
  Runtime.install ();
  let proc = tier_reader_proc () in
  let data_id = tier_free_ident proc in
  let run_sequence ~tier =
    let heap = Value.Heap.create () in
    let ctx = Runtime.create ~fuel:1_000_000 heap in
    let arr, oid = tier_store_reader heap proc data_id in
    if tier then check tbool "promoted" true (Tierup.force_promote ctx oid);
    let before = [ tier_call ctx oid 0; tier_call ctx oid 1; tier_call ctx oid 0 ] in
    (* mid-loop mutation of the dependency through the heap *)
    Value.Heap.set heap arr (Value.Array [| Value.Int 100; Value.Int 200 |]);
    let after = [ tier_call ctx oid 0; tier_call ctx oid 1 ] in
    if tier then
      check tbool "the reader's unit stays compiled" true (Jit.is_compiled (func_unit heap oid));
    before @ after
  in
  let _, d0, r0 = tier_stats () in
  let tiered = run_sequence ~tier:true in
  let _, d1, r1 = tier_stats () in
  check tint "a data mutation drops no compiled code" d0 d1;
  check tint "tier ran before and after the mutation" (r0 + 5) r1;
  let plain = run_sequence ~tier:false in
  let _, _, r2 = tier_stats () in
  check tint "unpromoted run never enters the tier" r1 r2;
  check tbool "tiered sequence identical to the unpromoted run" true
    (List.for_all2 Value.identical tiered plain);
  check tbool "mutation visible on the tier" true
    (List.nth tiered 3 = Value.Int 100 && List.nth tiered 4 = Value.Int 200)

(* The tier source's [compiled_units] obeys a registry reset like every
   other counter: zero after [Metrics.reset_all] ([tmlsh :stats reset]),
   counting again from the next compile. *)
let test_tier_compiled_units_reset () =
  Runtime.install ();
  let compiled () = Metrics_probe.count ~source:"tier" "compiled_units" in
  let proc = tier_reader_proc () in
  let data_id = tier_free_ident proc in
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let promote () =
    let _, oid = tier_store_reader heap proc data_id in
    check tbool "promoted" true (Tierup.force_promote ctx oid)
  in
  promote ();
  check tbool "a compile counts" true (compiled () > 0);
  Tml_obs.Metrics.reset_all ();
  check tint "zero after a reset" 0 (compiled ());
  promote ();
  check tint "the next compile counts" 1 (compiled ())

(* A durable reopen builds a fresh heap that reuses the same OIDs: its
   code units are new, so it starts cold and runs on the machine with
   identical results — nothing from the closed heap carries over. *)
let test_tier_deopt_on_durable_reopen () =
  Runtime.install ();
  let proc = tier_reader_proc () in
  let data_id = tier_free_ident proc in
  let path = Filename.temp_file "tml_tier" ".tmlstore" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let ctx = Runtime.create ~fuel:1_000_000 heap in
      let _, oid = tier_store_reader heap proc data_id in
      check tbool "promoted" true (Tierup.force_promote ctx oid);
      let first = tier_call ctx oid 1 in
      check tbool "tiered read" true (Value.identical first (Value.Int 8));
      ignore (Pstore.commit ~root:oid ps);
      Pstore.close ps;
      let ps2 = Pstore.open_ ~fsync:false path in
      Fun.protect
        ~finally:(fun () -> Pstore.close ps2)
        (fun () ->
          let ctx2 = Runtime.create ~fuel:1_000_000 (Pstore.heap ps2) in
          let _, d0, r0 = tier_stats () in
          let again = tier_call ctx2 oid 1 in
          check tbool "identical result after reopen" true
            (Value.identical again (Value.Int 8));
          let _, d1, r1 = tier_stats () in
          check tint "no deopt: the reopened heap has its own units" d0 d1;
          check tint "no tier runs in the reopened world" r0 r1;
          check tbool "the reopened function starts cold" false
            (Jit.is_compiled (func_unit (Pstore.heap ps2) oid))))

(* with the policy on at its default threshold *)
let with_tier f =
  let saved = !Tierup.enabled in
  Tierup.enabled := true;
  Fun.protect ~finally:(fun () -> Tierup.enabled := saved) f

(* Bubble's shape: a loop inside a function called once.  Every
   iteration is a closure entry, so the loop's unit heats up and the
   rest of the loop runs compiled, charging exactly like the machine. *)
let test_tier_loop_in_single_call () =
  let src =
    "proc(n z ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! n 0) cont(i acc) (<= i 0 \
     cont() (cc! acc) cont() (ccall \"print_int\" i ce! cont(u) (+ acc i ce! cont(a2) (- i \
     1 ce! cont(i2) (loop! i2 a2)))))))"
  in
  let args = [ Value.Int 200; Value.Unit ] in
  let m_out, m_ctx = run_src `Machine src args in
  let _, _, r0 = tier_stats () in
  let t_out, t_ctx = with_tier (fun () -> run_src `Machine src args) in
  let _, _, r1 = tier_stats () in
  check tbool "the loop entered the compiled tier" true (r1 > r0);
  check tbool "same outcome" true (Eval.outcome_equal m_out t_out);
  check tstring "same output" (Buffer.contents m_ctx.Runtime.out)
    (Buffer.contents t_ctx.Runtime.out);
  check tint "same steps" m_ctx.Runtime.steps t_ctx.Runtime.steps

(* Two heaps allocate one OID for different functions.  Heap B runs its
   own code, compiles only on its own heat, and A's hot history neither
   leaks into B nor costs a deopt. *)
let test_tier_two_heaps_one_oid () =
  Runtime.install ();
  let load src =
    let heap = Value.Heap.create () in
    let ctx = Runtime.create ~fuel:1_000_000 heap in
    ctx, Value.Heap.alloc_func heap ~name:"f" (Sexp.parse_value src)
  in
  let call ctx oid =
    match Machine.run_proc ctx (Value.Oidv oid) [ Value.Int 5 ] with
    | Eval.Done v -> v
    | o -> Alcotest.failf "expected Done, got %a" Eval.pp_outcome o
  in
  let ctx_a, oid_a = load "proc(x ce! cc!) (+ x 1 ce! cc!)" in
  let ctx_b, oid_b = load "proc(x ce! cc!) (* x 10 ce! cc!)" in
  check tint "one OID in both heaps" (Oid.to_int oid_a) (Oid.to_int oid_b);
  with_tier (fun () ->
      for _ = 1 to !Tierup.call_threshold + 5 do
        check tbool "A runs its code" true (Value.identical (call ctx_a oid_a) (Value.Int 6))
      done;
      check tbool "A is compiled" true (Jit.is_compiled (func_unit ctx_a.Runtime.heap oid_a));
      (* already compiled by its heat: forcing it changes nothing *)
      check tbool "A promoted" true (Tierup.force_promote ctx_a oid_a);
      let p0, d0, r0 = tier_stats () in
      check tbool "B runs its own code" true (Value.identical (call ctx_b oid_b) (Value.Int 50));
      let p1, d1, r1 = tier_stats () in
      check tint "B starts cold: no promotion" p0 p1;
      check tint "B starts cold: no compiled run" r0 r1;
      check tint "no foreign-heap deopt" d0 d1;
      for _ = 2 to !Tierup.call_threshold - 1 do
        ignore (call ctx_b oid_b)
      done;
      let p2, _, r2 = tier_stats () in
      check tint "still below B's own threshold" p0 p2;
      check tint "still on the machine" r0 r2;
      check tbool "B runs its own code, compiled" true
        (Value.identical (call ctx_b oid_b) (Value.Int 50));
      let p3, d3, r3 = tier_stats () in
      check tint "B compiled on its own heat" (p0 + 1) p3;
      check tint "B entered its compiled code" (r0 + 1) r3;
      check tint "still no deopt" d0 d3)

(* A loop heats its function's unit onto the tier; an in-place
   re-optimization then replaces the function's code with a new, cold
   unit.  The old compiled code is dropped (one deopt) and the new unit
   is compiled at once (one promotion), so the next call starts on the
   tier. *)
let test_tier_reoptimize_keeps_hot () =
  Runtime.install ();
  let heap = Value.Heap.create () in
  let ctx = Runtime.create ~fuel:1_000_000 heap in
  let oid =
    Value.Heap.alloc_func heap ~name:"sum"
      (Sexp.parse_value
         "proc(n ce! cc!) (Y lambda(c0! loop! c!) (c! cont() (loop! n 0) cont(i acc) (<= i 0 \
          cont() (cc! acc) cont() (+ acc i ce! cont(a2) (- i 1 ce! cont(i2) (loop! i2 \
          a2))))))")
  in
  let call () =
    match Machine.run_proc ctx (Value.Oidv oid) [ Value.Int 100 ] with
    | Eval.Done v -> v
    | o -> Alcotest.failf "expected Done, got %a" Eval.pp_outcome o
  in
  with_tier (fun () ->
      let before = call () in
      check tbool "the loop compiled its unit" true (Jit.is_compiled (func_unit heap oid));
      let p0, d0, r0 = tier_stats () in
      ignore (Tml_reflect.Reflect.optimize_inplace ctx oid);
      let p1, d1, _ = tier_stats () in
      check tint "the old compiled code was dropped" (d0 + 1) d1;
      check tint "the new code was compiled" (p0 + 1) p1;
      check tbool "the new unit is compiled" true (Jit.is_compiled (func_unit heap oid));
      check tbool "same result" true (Value.identical before (call ()));
      let p2, _, r2 = tier_stats () in
      check tint "no second promotion" p1 p2;
      check tint "the first entry ran compiled" (r0 + 1) r2)

(* Tier state lives on the heap's code units: once the program and its
   heap are dropped, nothing process-wide keeps them alive. *)
let test_tier_dropped_heap_collected () =
  Runtime.install ();
  let weak = Weak.create 1 in
  let run () =
    let proc = tier_reader_proc () in
    let heap = Value.Heap.create () in
    let ctx = Runtime.create ~fuel:1_000_000 heap in
    let _, oid = tier_store_reader heap proc (tier_free_ident proc) in
    Weak.set weak 0 (Some heap);
    check tbool "promoted" true (Tierup.force_promote ctx oid);
    with_tier (fun () ->
        for i = 1 to !Tierup.call_threshold do
          ignore (tier_call ctx oid (i land 1))
        done)
  in
  let _, _, r0 = tier_stats () in
  run ();
  let _, _, r1 = tier_stats () in
  check tbool "the run was tiered" true (r1 > r0);
  Gc.full_major ();
  check tbool "the dropped heap was collected" false (Weak.check weak 0)

let test_identical () =
  check tbool "ints" true (Value.identical (Value.Int 3) (Value.Int 3));
  check tbool "int/real differ" false (Value.identical (Value.Int 3) (Value.Real 3.0));
  check tbool "strings by content" true (Value.identical (Value.Str "ab") (Value.Str "ab"));
  check tbool "oids" true
    (Value.identical (Value.Oidv (Oid.of_int 1)) (Value.Oidv (Oid.of_int 1)));
  check tbool "nan reflexive" true (Value.identical (Value.Real Float.nan) (Value.Real Float.nan))

let () =
  Runtime.install ();
  Alcotest.run "tml_vm"
    [
      ( "basics",
        [
          Alcotest.test_case "arithmetic and exceptions" `Quick test_arith;
          Alcotest.test_case "comparisons and case" `Quick test_comparisons_and_case;
          Alcotest.test_case "reals, chars, bools, bits" `Quick test_reals_chars_bools;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "string folds" `Quick test_string_folds;
          Alcotest.test_case "Y loop" `Quick test_y_loop;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
        ] );
      ( "store",
        [
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "bounds faults" `Quick test_array_faults;
          Alcotest.test_case "block move" `Quick test_move;
          Alcotest.test_case "byte arrays" `Quick test_bytes;
          Alcotest.test_case "heap" `Quick test_heap;
          Alcotest.test_case "object identity" `Quick test_identical;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "lexical continuations" `Quick test_lexical_exceptions;
          Alcotest.test_case "handler stack" `Quick test_handler_stack;
        ] );
      ( "higher-order",
        [
          Alcotest.test_case "first-class procedures" `Quick test_first_class_procs;
          Alcotest.test_case "primitives as values" `Quick test_prim_as_value;
          Alcotest.test_case "ccall and output capture" `Quick test_ccall_output;
        ] );
      ( "engines",
        [
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel;
          Alcotest.test_case "step accounting" `Quick test_steps_counted;
          Alcotest.test_case "agreement on generated programs" `Quick
            test_engines_agree_generated;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "shapes and codec" `Quick test_compile_shapes;
          Alcotest.test_case "free identifier layout" `Quick test_compile_free_layout;
        ] );
      ( "tier",
        [
          Alcotest.test_case "deopt on store mutation" `Quick test_tier_deopt_on_mutation;
          Alcotest.test_case "deopt across durable reopen" `Quick
            test_tier_deopt_on_durable_reopen;
          Alcotest.test_case "loop in a function called once" `Quick
            test_tier_loop_in_single_call;
          Alcotest.test_case "two heaps, one OID" `Quick test_tier_two_heaps_one_oid;
          Alcotest.test_case "dropped heap is collected" `Quick
            test_tier_dropped_heap_collected;
          Alcotest.test_case "re-optimization keeps a hot function compiled" `Quick
            test_tier_reoptimize_keeps_hot;
          Alcotest.test_case "compiled_units obeys a reset" `Quick
            test_tier_compiled_units_reset;
        ] );
    ]
