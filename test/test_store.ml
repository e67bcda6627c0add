(* The durable log-structured store: write-ahead commit semantics, crash
   recovery at every possible torn-write point, CRC rejection, compaction,
   snapshot pins and the write journal against a model, and the
   persistent heap above it (lazy faulting, write-back of changed
   objects only, durable reflective optimization). *)

open Tml_core
open Tml_vm
module Ls = Tml_store.Log_store
module Stats = Tml_store.Store_stats

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let temp_store () =
  let path = Filename.temp_file "tml_store_test" ".tmlstore" in
  Sys.remove path;
  path

let with_store f =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

(* --- write-ahead log ---------------------------------------------- *)

let test_wal_basics () =
  with_store (fun path ->
      let t = Ls.create ~fsync:false path in
      check tint "two records" 2 (Ls.commit t [ (0, "alpha"); (1, "beta") ]);
      check tbool "sealed readable" true (Ls.find t 1 = Some "beta");
      check tint "empty commit writes nothing" 0 (Ls.commit t []);
      check tint "one record" 1 (Ls.commit ~root:1 t [ (0, "alpha3") ]);
      check tbool "superseded" true (Ls.find t 0 = Some "alpha3");
      Ls.close t;
      let t = Ls.open_ ~fsync:false path in
      check tint "objects back" 2 (Ls.object_count t);
      check tbool "latest version" true (Ls.find t 0 = Some "alpha3");
      check tbool "root sticky" true (Ls.root t = Some 1);
      check tint "no truncation" 0 (Ls.stats t).Stats.recovery_truncations;
      check tint "two transactions" 2 (Ls.seq t);
      Ls.close t)

let test_uncommitted_puts_are_lost () =
  with_store (fun path ->
      let t = Ls.create ~fsync:false path in
      ignore (Ls.commit t [ (0, "durable") ]);
      ignore (Ls.commit t [ (1, "volatile") ]);
      Ls.close t;
      (* a crash before the second seal hit the disk: its put record is
         complete, its commit record is not *)
      let data = read_file path in
      write_file path (String.sub data 0 (String.length data - 1));
      let t = Ls.open_ ~fsync:false path in
      check tbool "sealed survives" true (Ls.find t 0 = Some "durable");
      check tbool "unsealed gone" true (Ls.find t 1 = None);
      Ls.close t)

(* Write two transactions, then replay recovery from every byte-length
   prefix of the file covering the whole last transaction: every cut must
   recover exactly the first transaction's state, and the truncated tail
   must be counted. *)
let test_truncation_sweep () =
  with_store (fun path ->
      let t = Ls.create ~fsync:false path in
      ignore (Ls.commit ~root:0 t [ (0, "first"); (1, String.make 200 'x') ]);
      let sealed_len = Ls.file_bytes t in
      ignore (Ls.commit ~root:2 t [ (1, "second-version"); (2, "second-new") ]);
      let full_len = Ls.file_bytes t in
      Ls.close t;
      let data = read_file path in
      check tint "file length" full_len (String.length data);
      for cut = sealed_len to full_len do
        let p = temp_store () in
        write_file p (String.sub data 0 cut);
        let t = Ls.open_ ~fsync:false p in
        if cut = full_len then begin
          check tint "full file: no truncation" 0 (Ls.stats t).Stats.recovery_truncations;
          check tbool "full file: second txn" true (Ls.find t 2 = Some "second-new")
        end
        else begin
          check tbool
            (Printf.sprintf "cut %d: first txn state" cut)
            true
            (Ls.find t 0 = Some "first"
            && Ls.find t 1 = Some (String.make 200 'x')
            && Ls.find t 2 = None
            && Ls.root t = Some 0
            && Ls.seq t = 1);
          if cut > sealed_len then begin
            check tint
              (Printf.sprintf "cut %d: truncation counted" cut)
              1
              (Ls.stats t).Stats.recovery_truncations;
            check tint
              (Printf.sprintf "cut %d: truncated bytes" cut)
              (cut - sealed_len)
              (Ls.stats t).Stats.truncated_bytes
          end;
          (* recovery must also have repaired the file on disk *)
          check tint
            (Printf.sprintf "cut %d: file repaired" cut)
            sealed_len
            (Unix.stat p).Unix.st_size
        end;
        (* the recovered store accepts new transactions *)
        ignore (Ls.commit t [ (7, "after-recovery") ]);
        Ls.close t;
        let t = Ls.open_ ~fsync:false p in
        check tbool "recovered store usable" true (Ls.find t 7 = Some "after-recovery");
        Ls.close t;
        Sys.remove p
      done)

let test_crc_corruption_cuts_tail () =
  with_store (fun path ->
      let t = Ls.create ~fsync:false path in
      ignore (Ls.commit t [ (0, "good") ]);
      let sealed_len = Ls.file_bytes t in
      ignore (Ls.commit t [ (1, "to-be-corrupted") ]);
      Ls.close t;
      let data = Bytes.of_string (read_file path) in
      (* flip one payload byte inside the second transaction *)
      Bytes.set data (sealed_len + 3) (Char.chr (Char.code (Bytes.get data (sealed_len + 3)) lxor 0xff));
      write_file path (Bytes.to_string data);
      let t = Ls.open_ ~fsync:false path in
      check tint "corrupt tail truncated" 1 (Ls.stats t).Stats.recovery_truncations;
      check tbool "first txn intact" true (Ls.find t 0 = Some "good");
      check tbool "corrupt txn gone" true (Ls.find t 1 = None);
      Ls.close t)

let test_bad_magic_rejected () =
  with_store (fun path ->
      write_file path "definitely not a store";
      match Ls.open_ ~fsync:false path with
      | exception Ls.Store_error _ -> ()
      | t ->
        Ls.close t;
        Alcotest.fail "bad magic accepted")

let test_compaction () =
  with_store (fun path ->
      let t = Ls.create ~fsync:false path in
      for round = 1 to 10 do
        ignore
          (Ls.commit ~root:0 t
             [ (0, Printf.sprintf "version-%d" round); (round, Printf.sprintf "object-%d" round) ])
      done;
      let before = Ls.file_bytes t in
      check tbool "garbage accumulated" true (Ls.live_bytes t < before);
      Ls.compact t;
      let after = Ls.file_bytes t in
      check tbool "file shrank" true (after < before);
      check tbool "latest version" true (Ls.find t 0 = Some "version-10");
      check tbool "all objects live" true (Ls.object_count t = 11);
      check tbool "root survives" true (Ls.root t = Some 0);
      ignore (Ls.commit t [ (99, "post-compact") ]);
      Ls.close t;
      let t = Ls.open_ ~fsync:false path in
      check tbool "reopen after compact" true
        (Ls.find t 5 = Some "object-5" && Ls.find t 99 = Some "post-compact");
      check tint "clean reopen" 0 (Ls.stats t).Stats.recovery_truncations;
      Ls.close t)

(* --- snapshots, checked against a model ------------------------------ *)

(* Random put/commit/pin/release sequences over 20 OIDs.  A put adds a
   pair to the model's pending batch and a commit hands that batch to the
   store.  The model keeps every epoch's OID -> payload map and the OIDs
   each commit sealed; after every step each live pin must read its own
   epoch, see exactly the later commits' OIDs in the journal and know its
   epoch's highest OID. *)
type mvcc_op = Put of int | Commit | Pin | Release of int

let pp_mvcc_op = function
  | Put oid -> Printf.sprintf "put %d" oid
  | Commit -> "commit"
  | Pin -> "pin"
  | Release i -> Printf.sprintf "release #%d" i

let mvcc_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (5, map (fun oid -> Put oid) (int_bound 19));
           (2, pure Commit);
           (1, pure Pin);
           (1, map (fun i -> Release i) (int_bound 7));
         ]))

module IM = Map.Make (Int)

let prop_mvcc_model =
  QCheck2.Test.make ~name:"pins read their epoch; the journal lists later commits"
    ~count:200
    ~print:(fun ops -> String.concat "; " (List.map pp_mvcc_op ops))
    mvcc_ops
    (fun ops ->
      with_store (fun path ->
          let t = Ls.create ~fsync:false path in
          let states = Hashtbl.create 16 and sealed = Hashtbl.create 16 in
          Hashtbl.replace states 0 IM.empty;
          let epoch = ref 0 and pending = ref IM.empty and pins = ref [] in
          let check_pin (sn, e) =
            let state = Hashtbl.find states e in
            for oid = 0 to 19 do
              if Ls.find_at t sn oid <> IM.find_opt oid state then
                QCheck2.Test.fail_reportf "pin at %d reads the wrong version of %d" e oid
            done;
            let later = ref [] in
            for e' = e + 1 to !epoch do
              later := Hashtbl.find sealed e' @ !later
            done;
            if Ls.written_after t sn <> List.sort_uniq compare !later then
              QCheck2.Test.fail_reportf "journal after epoch %d is wrong" e;
            let max_oid = match IM.max_binding_opt state with Some (o, _) -> o | None -> -1 in
            if Ls.snapshot_max_oid sn <> max_oid then
              QCheck2.Test.fail_reportf "pin at %d: max OID %d, want %d" e
                (Ls.snapshot_max_oid sn) max_oid
          in
          List.iteri
            (fun step op ->
              (match op with
              | Put oid ->
                pending := IM.add oid (Printf.sprintf "%d@%d" oid step) !pending
              | Commit ->
                ignore (Ls.commit t (IM.bindings !pending));
                if not (IM.is_empty !pending) then begin
                  let prev = Hashtbl.find states !epoch in
                  incr epoch;
                  Hashtbl.replace states !epoch
                    (IM.union (fun _ _ fresh -> Some fresh) prev !pending);
                  Hashtbl.replace sealed !epoch (List.map fst (IM.bindings !pending));
                  pending := IM.empty
                end
              | Pin -> pins := (Ls.pin t, !epoch) :: !pins
              | Release i -> (
                match !pins with
                | [] -> ()
                | live ->
                  let sn, _ = List.nth live (i mod List.length live) in
                  Ls.release t sn;
                  pins := List.filter (fun (s, _) -> s != sn) live));
              if Ls.seq t <> !epoch then QCheck2.Test.fail_reportf "epoch drifted";
              List.iter check_pin !pins;
              if !pins = [] && Ls.version_count t <> Ls.object_count t then
                QCheck2.Test.fail_reportf "no pins, yet %d versions of %d objects"
                  (Ls.version_count t) (Ls.object_count t))
            ops;
          Ls.close t;
          true))

(* --- persistent heap ---------------------------------------------- *)

let test_pstore_lazy_faulting () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let oids =
        Array.init 20 (fun i ->
            Value.Heap.alloc heap (Value.Vector [| Value.Int i; Value.Str (string_of_int i) |]))
      in
      check tint "everything new" 20 (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let heap = Pstore.heap ps in
      (* a cold open decodes nothing *)
      check tint "cold open: no faults" 0 (Pstore.stats ps).Stats.faults;
      check tint "cold open: nothing loaded" 0 (Value.Heap.loaded_count heap);
      (match Value.Heap.get heap oids.(7) with
      | Value.Vector [| Value.Int 7; Value.Str "7" |] -> ()
      | _ -> Alcotest.fail "faulted object corrupted");
      check tint "one fault" 1 (Pstore.stats ps).Stats.faults;
      check tint "one loaded" 1 (Value.Heap.loaded_count heap);
      (* second access is served from the cache, not a fault *)
      ignore (Value.Heap.get heap oids.(7));
      check tint "still one fault" 1 (Pstore.stats ps).Stats.faults;
      Pstore.close ps)

let test_pstore_mutation_roundtrip () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let arr = Value.Heap.alloc heap (Value.Array [| Value.Int 1; Value.Int 2 |]) in
      ignore (Pstore.commit ps);
      (* in-place mutation: the reported write dirties the array, commit
         rewrites it *)
      (match Value.Heap.get heap arr with
      | Value.Array slots -> slots.(0) <- Value.Int 99
      | _ -> assert false);
      Value.Heap.note_write heap arr;
      check tbool "dirty tracked" true (Pstore.uncommitted_count ps > 0);
      check tint "one object rewritten" 1 (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      (match Value.Heap.get (Pstore.heap ps) arr with
      | Value.Array [| Value.Int 99; Value.Int 2 |] -> ()
      | _ -> Alcotest.fail "mutation lost");
      Pstore.close ps)

let test_pstore_uncommitted_lost () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let a = Value.Heap.alloc heap (Value.Vector [| Value.Int 1 |]) in
      ignore (Pstore.commit ps);
      let b = Value.Heap.alloc heap (Value.Vector [| Value.Int 2 |]) in
      ignore b;
      (* no commit: simulate a crash by reopening the file directly *)
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let heap = Pstore.heap ps in
      check tbool "committed survives" true (Value.Heap.get_opt heap a <> None);
      check tint "uncommitted gone" (Oid.to_int a + 1) (Value.Heap.size heap);
      Pstore.close ps)

(* Reading a stored array and calling a stored function write nothing,
   so they stage nothing: the commit writes nothing. *)
let test_pstore_read_only_commit () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let arr = Value.Heap.alloc heap (Value.Array [| Value.Int 1; Value.Int 2 |]) in
      let sq =
        Value.Heap.alloc_func heap ~name:"square"
          (Sexp.parse_value "proc(x ce! cc!) (* x x ce! cc!)")
      in
      ignore (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let heap = Pstore.heap ps in
      (match Value.Heap.get heap arr with
      | Value.Array [| Value.Int 1; Value.Int 2 |] -> ()
      | _ -> Alcotest.fail "stored array corrupted");
      (match Machine.run_proc (Runtime.create heap) (Value.Oidv sq) [ Value.Int 7 ] with
      | Eval.Done (Value.Int 49) -> ()
      | o -> Alcotest.failf "stored function broken: %a" Eval.pp_outcome o);
      check tint "reads dirty nothing" 0 (Pstore.uncommitted_count ps);
      check tint "reads stage nothing" 0 (List.length (Pstore.collect ps));
      check tint "nothing changed, nothing written" 0 (Pstore.commit ps);
      check tint "no record appended" 0 (Pstore.stats ps).Stats.records_written;
      Pstore.close ps)

(* [attach] adopts a heap whose objects the first commit writes but did
   not create: a function the heap already held stays cached through that
   commit, so calling it faults nothing. *)
let test_pstore_attach_keeps_functions () =
  with_store (fun path ->
      let heap = Value.Heap.create () in
      let sq =
        Value.Heap.alloc_func heap ~name:"square"
          (Sexp.parse_value "proc(x ce! cc!) (* x x ce! cc!)")
      in
      let ps = Pstore.attach ~fsync:false path heap in
      ignore (Pstore.commit ps);
      let faults = Tml_obs.Metrics.counter "store.object_faults" in
      let before = Tml_obs.Metrics.counter_value faults in
      (match Machine.run_proc (Runtime.create heap) (Value.Oidv sq) [ Value.Int 7 ] with
      | Eval.Done (Value.Int 49) -> ()
      | o -> Alcotest.failf "adopted function broken: %a" Eval.pp_outcome o);
      check tint "the call faults nothing" before (Tml_obs.Metrics.counter_value faults);
      Pstore.close ps)

(* The functions a transaction allocated are evicted when it commits (most
   are one-shot expression functions) and fault back on a call; the
   boundary moves with every commit, so a function the heap held before
   the transaction, adopted or faulted in, stays cached. *)
let test_pstore_commit_evicts_new_functions () =
  let faults = Tml_obs.Metrics.counter "store.object_faults" in
  let call heap f arg expect =
    match Machine.run_proc (Runtime.create heap) (Value.Oidv f) [ Value.Int arg ] with
    | Eval.Done (Value.Int n) when n = expect -> ()
    | o -> Alcotest.failf "stored function broken: %a" Eval.pp_outcome o
  in
  with_store (fun path ->
      let heap = Value.Heap.create () in
      let sq =
        Value.Heap.alloc_func heap ~name:"square"
          (Sexp.parse_value "proc(x ce! cc!) (* x x ce! cc!)")
      in
      let ps = Pstore.attach ~fsync:false path heap in
      ignore (Pstore.commit ps);
      let cube =
        Value.Heap.alloc_func heap ~name:"cube"
          (Sexp.parse_value "proc(x ce! cc!) (* x x ce! cont(t) (* t x ce! cc!))")
      in
      ignore (Pstore.commit ps);
      check tbool "the transaction's function is evicted" false
        (Value.Heap.is_loaded heap cube);
      check tbool "the adopted function stays" true (Value.Heap.is_loaded heap sq);
      let before = Tml_obs.Metrics.counter_value faults in
      call heap cube 3 27;
      check tint "the call faults it back" (before + 1) (Tml_obs.Metrics.counter_value faults);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let heap = Pstore.heap ps in
      call heap cube 2 8;
      ignore (Value.Heap.alloc heap (Value.Vector [| Value.Int 1 |]));
      check tbool "the commit writes the new object" true (Pstore.commit ps >= 1);
      check tbool "a faulted-in function stays" true (Value.Heap.is_loaded heap cube);
      let before = Tml_obs.Metrics.counter_value faults in
      call heap cube 4 64;
      check tint "calling it again faults nothing" before (Tml_obs.Metrics.counter_value faults);
      Pstore.close ps)

let test_pstore_relation_refault () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let ctx = Runtime.create heap in
      let rel =
        Tml_query.Rel.create ctx ~name:"r"
          [ [| Value.Int 1; Value.Str "a" |]; [| Value.Int 2; Value.Str "b" |] ]
      in
      Tml_query.Rel.add_index ctx rel 0;
      ignore (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let ctx = Runtime.create (Pstore.heap ps) in
      (* the persisted index serves the lookup directly: only the
         relation header and the index object fault, never the rows *)
      Tml_query.Rel.index_builds := 0;
      Tml_query.Rel.index_loads := 0;
      (match Tml_query.Rel.lookup ctx rel ~field:0 (Literal.Int 2) with
      | Some [ pos ] -> (
        check tint "no index rebuild on reopen" 0 !Tml_query.Rel.index_builds;
        check tint "index loaded from store" 1 !Tml_query.Rel.index_loads;
        check tbool "rows not faulted by lookup" true
          ((Pstore.stats ps).Stats.faults <= 2);
        (* resolving the position faults the row tuple itself *)
        match Tml_query.Rel.nth ctx rel pos with
        | Value.Oidv t -> (
          match Value.Heap.get (Pstore.heap ps) t with
          | Value.Tuple [| Value.Int 2; Value.Str "b" |] -> ()
          | _ -> Alcotest.fail "row tuple wrong after re-fault")
        | _ -> Alcotest.fail "row is not a tuple reference")
      | _ -> Alcotest.fail "persisted index lost on reopen");
      Pstore.close ps)

let test_optimize_commits_durably () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let ctx = Runtime.create heap in
      ctx.Runtime.durable_commit <- Some (fun () -> ignore (Pstore.commit ps));
      let proc = Sexp.parse_value "proc(x ce! cc!) (* x x ce! cc!)" in
      let oid = Value.Heap.alloc_func heap ~name:"square" proc in
      ignore (Pstore.commit ps);
      let r = Tml_reflect.Reflect.optimize_inplace ctx oid in
      check tbool "optimizer reported" true
        (r.Tml_reflect.Reflect.report.Tml_core.Optimizer.cost_after
        <= r.Tml_reflect.Reflect.report.Tml_core.Optimizer.cost_before);
      (* no explicit commit: the optimizer committed through the hook *)
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let heap = Pstore.heap ps in
      (match Value.Heap.get heap oid with
      | Value.Func fo ->
        check tbool "derived attributes persisted" true
          (List.mem_assoc "cost_before" fo.Value.fo_attrs
          && List.mem_assoc "cost_after" fo.Value.fo_attrs)
      | _ -> Alcotest.fail "function lost");
      let ctx = Runtime.create heap in
      (match Machine.run_proc ctx (Value.Oidv oid) [ Value.Int 9 ] with
      | Eval.Done (Value.Int 81) -> ()
      | o -> Alcotest.failf "optimized function broken: %a" Eval.pp_outcome o);
      Pstore.close ps)

let test_pstore_crash_recovery () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let a = Value.Heap.alloc heap (Value.Array [| Value.Int 1 |]) in
      ignore (Pstore.commit ps);
      (match Value.Heap.get heap a with
      | Value.Array slots -> slots.(0) <- Value.Int 2
      | _ -> assert false);
      Value.Heap.note_write heap a;
      ignore (Pstore.commit ps);
      Pstore.close ps;
      (* tear the last transaction in half *)
      let data = read_file path in
      write_file path (String.sub data 0 (String.length data - 3));
      let ps = Pstore.open_ ~fsync:false path in
      check tint "torn tail cut" 1 (Pstore.stats ps).Stats.recovery_truncations;
      (match Value.Heap.get (Pstore.heap ps) a with
      | Value.Array [| Value.Int 1 |] -> ()
      | _ -> Alcotest.fail "did not recover the sealed state");
      Pstore.close ps)

(* --- write reports ---------------------------------------------- *)

(* Every in-place write into an object committed earlier reports itself,
   under each engine: the commit rewrites the object and a reopen reads
   the written value back.  [move] and [bmove] copy from a fresh source
   into the committed target. *)
type write_case = {
  w_prim : string;
  w_target : unit -> Value.obj;  (** a fresh target, committed before the write *)
  w_proc : string;  (** [proc(t ce! cc!)] writing into [t] *)
  w_expect : Value.obj;  (** [t] after the write, read back after a reopen *)
}

let write_cases =
  [
    {
      w_prim = "[:=]";
      w_target = (fun () -> Value.Array [| Value.Int 0; Value.Int 0; Value.Int 0 |]);
      w_proc = "proc(t ce! cc!) ([:=] t 1 42 cont(u) (cc! u))";
      w_expect = Value.Array [| Value.Int 0; Value.Int 42; Value.Int 0 |];
    };
    {
      w_prim = "b[:=]";
      w_target = (fun () -> Value.Bytes (Bytes.of_string "aaa"));
      w_proc = "proc(t ce! cc!) (b[:=] t 1 66 cont(u) (cc! u))";
      w_expect = Value.Bytes (Bytes.of_string "aBa");
    };
    {
      w_prim = "move";
      w_target = (fun () -> Value.Array [| Value.Int 0; Value.Int 0; Value.Int 0 |]);
      w_proc = "proc(t ce! cc!) (array 7 8 cont(s) (move s 0 t 1 2 cont(u) (cc! u)))";
      w_expect = Value.Array [| Value.Int 0; Value.Int 7; Value.Int 8 |];
    };
    {
      w_prim = "bmove";
      w_target = (fun () -> Value.Bytes (Bytes.of_string "aaaa"));
      w_proc = "proc(t ce! cc!) (bnew 2 90 cont(s) (bmove s 0 t 1 2 cont(u) (cc! u)))";
      w_expect = Value.Bytes (Bytes.of_string "aZZa");
    };
  ]

let write_engines =
  [ "the tree evaluator", `Tree; "the machine", `Machine; "a compiled unit", `Compiled ]

let same_obj a b =
  match a, b with
  | Value.Array x, Value.Array y -> Array.for_all2 Value.identical x y
  | Value.Bytes x, Value.Bytes y -> Bytes.equal x y
  | _ -> false

let test_write_reported c engine () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let target = Value.Heap.alloc heap (c.w_target ()) in
      ignore (Pstore.commit ps);
      let ctx = Runtime.create heap in
      let f = Value.Heap.alloc_func heap ~name:"writer" (Sexp.parse_value c.w_proc) in
      let run =
        match engine with
        | `Tree -> Eval.run_proc
        | `Machine -> Machine.run_proc
        | `Compiled ->
          check tbool "writer promoted" true (Tierup.force_promote ctx f);
          Machine.run_proc
      in
      (match run ctx (Value.Oidv f) [ Value.Oidv target ] with
      | Eval.Done Value.Unit -> ()
      | o -> Alcotest.failf "%s: %a" c.w_prim Eval.pp_outcome o);
      if engine = `Compiled then
        check tbool "the write ran compiled" true
          (match Value.Heap.get heap f with
          | Value.Func { Value.fo_code = Some u; _ } -> Jit.is_compiled u
          | _ -> false);
      check tbool "the write staged the target" true
        (List.mem_assoc (Oid.to_int target) (Pstore.collect ps));
      ignore (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      check tbool "the write survives a reopen" true
        (same_obj c.w_expect (Value.Heap.get (Pstore.heap ps) target));
      Pstore.close ps)

let write_site_tests =
  List.concat_map
    (fun c ->
      List.map
        (fun (ename, engine) ->
          Alcotest.test_case
            (Printf.sprintf "%s under %s reaches the store" c.w_prim ename)
            `Quick (test_write_reported c engine))
        write_engines)
    write_cases

(* A compiled [[:=]] site fills its cache in one transaction and writes
   through it in the next: the commit between them moves no generation,
   so the second write is served from the cache, and it still reaches
   the store. *)
let test_compiled_write_cache_across_commits () =
  with_store (fun path ->
      let heap = Value.Heap.create () in
      let arr = Value.Heap.alloc heap (Value.Array [| Value.Int 0; Value.Int 0 |]) in
      let f =
        Value.Heap.alloc_func heap ~name:"put"
          (Sexp.parse_value "proc(i v ce! cc!) ([:=] a i v cont(u) (cc! u))")
      in
      (match Value.Heap.get heap f with
      | Value.Func fo ->
        fo.Value.fo_bindings <-
          List.map (fun id -> id, Value.Oidv arr)
            (Ident.Set.elements (Term.free_vars_value fo.Value.fo_tml))
      | _ -> assert false);
      (* adopted, so the commits keep [put] and its compiled unit cached *)
      let ps = Pstore.attach ~fsync:false path heap in
      ignore (Pstore.commit ps);
      let ctx = Runtime.create heap in
      check tbool "put promoted" true (Tierup.force_promote ctx f);
      let put i v =
        match Machine.run_proc ctx (Value.Oidv f) [ Value.Int i; Value.Int v ] with
        | Eval.Done Value.Unit -> ()
        | o -> Alcotest.failf "put: %a" Eval.pp_outcome o
      in
      put 0 5;
      check tint "the first write is staged" 1 (Pstore.commit ps);
      let gen = Value.Heap.generation heap in
      put 1 7;
      check tint "the cached site wrote within one generation" gen
        (Value.Heap.generation heap);
      check tint "the cached write is staged" 1 (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      check tbool "both writes survive a reopen" true
        (same_obj
           (Value.Array [| Value.Int 5; Value.Int 7 |])
           (Value.Heap.get (Pstore.heap ps) arr));
      Pstore.close ps)

(* Two sessions share one log.  A compiled call site in session A calls a
   stored function through its OID, filling its cache; session B
   replaces the callee and commits.  At A's next transaction boundary
   the stale callee is evicted, which moves A's heap generation, and the
   site calls the new version. *)
let test_compiled_call_sees_other_session () =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let heap = Pstore.heap ps in
      let g =
        Value.Heap.alloc_func heap ~name:"g"
          (Sexp.parse_value "proc(x ce! cc!) (+ x 1 ce! cc!)")
      in
      let caller =
        Value.Heap.alloc_func heap ~name:"caller"
          (Sexp.parse_value
             (Printf.sprintf "proc(x ce! cc!) (<oid %d> x ce! cc!)" (Oid.to_int g)))
      in
      ignore (Pstore.commit ps);
      Pstore.close ps;
      let log = Ls.open_ ~fsync:false path in
      let base = Ls.max_oid log + 1 in
      let a = Pstore.open_snapshot log ~alloc_base:base in
      let b = Pstore.open_snapshot log ~alloc_base:base in
      let ctx_a = Runtime.create (Pstore.heap a) in
      check tbool "caller promoted" true (Tierup.force_promote ctx_a caller);
      let call () =
        match Machine.run_proc ctx_a (Value.Oidv caller) [ Value.Int 10 ] with
        | Eval.Done (Value.Int n) -> n
        | o -> Alcotest.failf "caller: %a" Eval.pp_outcome o
      in
      check tint "A calls g" 11 (call ());
      let gen = Value.Heap.generation (Pstore.heap a) in
      check tint "served from the call site" 11 (call ());
      check tint "a read moves no generation" gen (Value.Heap.generation (Pstore.heap a));
      check tint "reads stage nothing" 0 (List.length (Pstore.collect a));
      (* session B replaces g and commits *)
      let hb = Pstore.heap b in
      let g2 =
        Value.Heap.alloc_func hb ~name:"g"
          (Sexp.parse_value "proc(x ce! cc!) (* x 100 ce! cc!)")
      in
      Value.Heap.set hb g (Value.Heap.get hb g2);
      ignore (Ls.commit log (Pstore.collect b));
      Pstore.mark_committed b (Ls.pin log);
      check tint "A's snapshot still sees the old g" 11 (call ());
      (* A's read-only transaction ends: it moves to the new epoch *)
      check tint "A stages nothing" 0 (List.length (Pstore.collect a));
      Pstore.mark_committed a (Ls.pin log);
      check tint "the compiled site calls B's g" 1000 (call ());
      Pstore.close a;
      Pstore.close b;
      Ls.close log)

(* --- IDX1 bytes ------------------------------------------------------- *)

(* Keys of every literal kind: repeats, 0.0 beside -0.0 and NaNs with
   different payloads (each pair one key under [compare], bound to the
   last row's key), negative reals (their bit patterns order the other
   way round) and an OID: OID 0 is the object the [Oidv] keys name. *)
let idx1_keys =
  let nan bits = Value.Real (Int64.float_of_bits bits) in
  [ Value.Int 3; Value.Str "b"; Value.Bool true; Value.Char 'x'; Value.Real 1.5;
    Value.Real 0.0; Value.Real (-2.0); nan 0x7FF8000000000001L; Value.Oidv (Oid.of_int 0);
    Value.Int (-7); Value.Real (-0.0); Value.Str "a"; Value.Int 3; Value.Real (-1.0);
    Value.Bool false; nan 0xFFF8000000000000L; Value.Char 'a'; Value.Str "b" ]

let idx1_more =
  [ Value.Real 0.0; Value.Int 3; Value.Real (Int64.float_of_bits 0x7FF0000000000002L);
    Value.Str "c"; Value.Real (-0.0); Value.Oidv (Oid.of_int 0); Value.Int 1 ]

(* the encodings an index over these keys had before it kept its keys in
   order: [idx1_keys] alone, then with [idx1_more] inserted *)
let idx1_golden_hex =
  "0849445831000e01010e02010203790109030302000c046101100478010305000000000000f8ff02070f"
  ^ "0500000000000000c0010605000000000000f0bf010d05000000000000008002050a05000000000000f8"
  ^ "3f0104060161010b06016202011107000108"

let idx1_golden_more_hex =
  "0849445831001001010e0201020379010903010118030303000c13046101100478010305020000000000"
  ^ "f07f03070f140500000000000000c0010605000000000000f0bf010d05000000000000008004050a1216"
  ^ "05000000000000f83f0104060161010b06016202011106016301150700020817"

let idx1_row i key = [| key; Value.Int i |]

let idx1_relation ctx =
  ignore (Value.Heap.alloc ctx.Runtime.heap (Value.Tuple [||]));
  let rel = Tml_query.Rel.create ctx ~name:"keys" (List.mapi idx1_row idx1_keys) in
  Tml_query.Rel.add_index ctx rel 0;
  rel

let idx1_insert_more ctx rel =
  let n = List.length idx1_keys in
  List.iteri (fun i key -> Tml_query.Rel.insert ctx rel (idx1_row (n + i) key)) idx1_more

let idx1_hex heap rel =
  match Value.Heap.get heap rel with
  | Value.Relation r -> (
    match Value.Heap.get heap (List.assoc 0 r.Value.rel_indexes) with
    | Value.Index _ as ix ->
      String.concat ""
        (List.map
           (fun c -> Printf.sprintf "%02x" (Char.code c))
           (List.of_seq (String.to_seq (Obj_codec.encode_obj ix))))
    | _ -> Alcotest.fail "not an index")
  | _ -> Alcotest.fail "not a relation"

(* the same keys in a relation stored before REL1: rows inline and the
   index persisted as its field list, rebuilt when decoded *)
let idx1_legacy_relation heap =
  ignore (Value.Heap.alloc heap (Value.Tuple [||]));
  let rows =
    List.mapi
      (fun i key -> Value.Oidv (Value.Heap.alloc heap (Value.Tuple (idx1_row i key))))
      idx1_keys
  in
  let module W = Tml_store.Codec.W in
  let w = W.create ~initial:256 () in
  W.u8 w 5;
  W.str w "keys";
  W.varint w (List.length rows);
  List.iter (Obj_codec.w_value w) rows;
  W.varint w 1 (* one index, on field 0 *);
  W.varint w 0;
  W.varint w 0 (* no triggers *);
  let obj, fields = Obj_codec.decode_obj (W.contents w) in
  let rel = Value.Heap.alloc heap obj in
  Obj_codec.rebuild_relation_indexes heap rel fields;
  rel

(* build, commit, reopen and insert [idx1_more]: [f] gets the reopened
   session's context and the relation *)
let with_reopened_idx1 f =
  with_store (fun path ->
      let ps = Pstore.create ~fsync:false path in
      let rel = idx1_relation (Runtime.create (Pstore.heap ps)) in
      ignore (Pstore.commit ps);
      Pstore.close ps;
      let ps = Pstore.open_ ~fsync:false path in
      let ctx = Runtime.create (Pstore.heap ps) in
      idx1_insert_more ctx rel;
      Fun.protect ~finally:(fun () -> Pstore.close ps) (fun () -> f ctx rel))

let test_idx1_golden () =
  let tstr = Alcotest.string in
  let ctx = Runtime.create (Value.Heap.create ()) in
  let rel = idx1_relation ctx in
  check tstr "fresh" idx1_golden_hex (idx1_hex ctx.Runtime.heap rel);
  idx1_insert_more ctx rel;
  check tstr "fresh, then inserts" idx1_golden_more_hex (idx1_hex ctx.Runtime.heap rel);
  with_reopened_idx1 (fun ctx rel ->
      check tstr "reopened, then inserts" idx1_golden_more_hex
        (idx1_hex ctx.Runtime.heap rel));
  let heap = Value.Heap.create () in
  let rel = idx1_legacy_relation heap in
  check tstr "rebuilt from a legacy relation" idx1_golden_hex (idx1_hex heap rel)

(* every key's positions are the rows whose key equals it under
   [compare], ascending — also after a reopen added rows to keys the
   store already held *)
let test_idx1_probes_ascending () =
  with_reopened_idx1 (fun ctx rel ->
      let keys = idx1_keys @ idx1_more in
      List.iter
        (fun key ->
          let want =
            List.concat (List.mapi (fun i k -> if compare k key = 0 then [ i ] else []) keys)
          in
          let lit = Option.get (Value.to_literal key) in
          check (Alcotest.list tint)
            (Printf.sprintf "positions of %s" (Value.to_string key))
            want
            (Option.get (Tml_query.Rel.lookup ctx rel ~field:0 lit)))
        keys)

let () =
  Runtime.install ();
  Tml_query.Qprims.install ();
  Alcotest.run "tml_store"
    [
      ( "log",
        [
          Alcotest.test_case "write-ahead basics" `Quick test_wal_basics;
          Alcotest.test_case "uncommitted puts are lost" `Quick test_uncommitted_puts_are_lost;
          Alcotest.test_case "recovery at every truncation point" `Quick test_truncation_sweep;
          Alcotest.test_case "CRC corruption cuts the tail" `Quick test_crc_corruption_cuts_tail;
          Alcotest.test_case "bad magic rejected" `Quick test_bad_magic_rejected;
          Alcotest.test_case "compaction" `Quick test_compaction;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop_mvcc_model;
        ] );
      ( "pstore",
        [
          Alcotest.test_case "lazy faulting" `Quick test_pstore_lazy_faulting;
          Alcotest.test_case "mutations round trip" `Quick test_pstore_mutation_roundtrip;
          Alcotest.test_case "uncommitted objects lost" `Quick test_pstore_uncommitted_lost;
          Alcotest.test_case "a read-only commit writes nothing" `Quick
            test_pstore_read_only_commit;
          Alcotest.test_case "relation index persisted across reopen" `Quick
            test_pstore_relation_refault;
          Alcotest.test_case "optimizer commits durably" `Quick test_optimize_commits_durably;
          Alcotest.test_case "crash recovery" `Quick test_pstore_crash_recovery;
          Alcotest.test_case "attach keeps the heap's functions cached" `Quick
            test_pstore_attach_keeps_functions;
          Alcotest.test_case "a commit evicts the functions it allocated" `Quick
            test_pstore_commit_evicts_new_functions;
        ]
        @ write_site_tests
        @ [
            Alcotest.test_case "a compiled write site keeps its cache across commits" `Quick
              test_compiled_write_cache_across_commits;
            Alcotest.test_case "a compiled call site sees another session's commit" `Quick
              test_compiled_call_sees_other_session;
            Alcotest.test_case "IDX1 bytes match the golden ones" `Quick test_idx1_golden;
            Alcotest.test_case "probes stay ascending after a reopen" `Quick
              test_idx1_probes_ascending;
          ] );
    ]
