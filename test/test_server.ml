(* tmld in-process: MVCC snapshot isolation across sessions, group
   commit batching (fsync amortization), first-committer-wins conflicts,
   admission control / load shedding, the staged-byte cap, restart
   recovery and clean shutdown.  Set TML_SERVER_SOAK=1 (the @server
   alias) for a longer commit storm. *)

module Server = Tml_server.Server
module Client = Tml_server.Client
module Wire = Tml_server.Wire
module Metrics = Tml_obs.Metrics

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let soak = Sys.getenv_opt "TML_SERVER_SOAK" <> None

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let temp_path suffix =
  let path = Filename.temp_file "tml_server" suffix in
  Sys.remove path;
  path

let config ?(max_clients = 64) ?(window = 0.05) ?(staged_cap = 16 * 1024 * 1024)
    ?(slow_ms = 0.) ?(slowlog_limit = 128) ~store ~sock () =
  {
    (Server.default_config ~store_path:store ~addr:(Wire.Unix_path sock)) with
    Server.max_clients;
    commit_window = window;
    staged_cap;
    fsync = false;
    slow_ms;
    slowlog_limit;
  }

let with_server ?max_clients ?window ?staged_cap ?slow_ms ?slowlog_limit f =
  let store = temp_path ".tmlstore" in
  let sock = temp_path ".sock" in
  let t =
    Server.start
      (config ?max_clients ?window ?staged_cap ?slow_ms ?slowlog_limit ~store ~sock ())
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      if Sys.file_exists store then Sys.remove store;
      if Sys.file_exists (store ^ ".slowlog") then Sys.remove (store ^ ".slowlog");
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f (Wire.Unix_path sock) t)

let eval_ok c src =
  match Client.eval c src with
  | Ok out -> out
  | Error msg -> Alcotest.failf "eval %S failed: %s" src msg

(* (epoch, objects, group) *)
let commit_ok c =
  match Client.commit c with
  | Ok (Client.Committed { epoch; objects; group }) -> (epoch, objects, group)
  | Ok (Client.Conflicted { oid }) -> Alcotest.failf "unexpected conflict on oid %d" oid
  | Error msg -> Alcotest.failf "commit failed: %s" msg

(* "- : 3 (in 6 instructions)" -> 3 *)
let int_result out =
  try Scanf.sscanf out "- : %d" (fun v -> v) with
  | Scanf.Scan_failure _ | Failure _ | End_of_file ->
    Alcotest.failf "expected an integer result, got %S" out

(* --- snapshot isolation -------------------------------------------- *)

let test_snapshot_isolation () =
  with_server (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (commit_ok setup);
      Client.close setup;
      let reader = Client.connect addr in
      let epoch0 = Client.epoch reader in
      check tint "reader sees the seeded relation" 2 (int_result (eval_ok reader "count(r)"));
      let writer = Client.connect addr in
      ignore (eval_ok writer "do insert(r, tuple(3, 30)) end");
      let writer_epoch, _, _ = commit_ok writer in
      check tbool "writer advanced the epoch" true (writer_epoch > epoch0);
      (* the reader is pinned at its connect epoch: the writer's commit
         must stay invisible no matter how often it re-reads *)
      check tint "pinned reader still sees 2 rows" 2 (int_result (eval_ok reader "count(r)"));
      check tint "pinned epoch unchanged" epoch0 (Client.epoch reader);
      (* its own commit is a transaction boundary: the pin moves forward
         and the writer's row appears *)
      (* a commit is the transaction boundary: it may seal the reader's
         own expression thunks (as tmlsh :commit does), but must never
         touch [r] — and it moves the pin to the latest epoch *)
      let reader_epoch, _, _ = commit_ok reader in
      check tbool "reader's commit reached the writer's epoch" true
        (reader_epoch >= writer_epoch);
      check tint "reader now sees 3 rows" 3 (int_result (eval_ok reader "count(r)"));
      Client.close reader;
      Client.close writer)

(* --- group commit --------------------------------------------------- *)

let test_group_commit_amortization () =
  (* a generous window so every client's commit lands in the same group:
     N commits, one (logical) fsync *)
  with_server ~window:0.15 (fun addr _t ->
      let n = 16 in
      let rounds = if soak then 8 else 1 in
      let setup = Client.connect addr in
      for k = 0 to n - 1 do
        ignore (eval_ok setup (Printf.sprintf "let r%d = relation(tuple(0, %d))" k k))
      done;
      ignore (commit_ok setup);
      Client.close setup;
      let commits0 = Metrics.counter_value (Metrics.counter "server.commits") in
      let groups0 = Metrics.counter_value (Metrics.counter "server.group_commits") in
      let clients = Array.init n (fun _ -> Client.connect addr) in
      for round = 1 to rounds do
        Array.iteri
          (fun k c ->
            ignore (eval_ok c (Printf.sprintf "do insert(r%d, tuple(%d, %d)) end" k round k)))
          clients;
        (* everyone commits at once; each write is disjoint, so every
           request must win its group *)
        let results = Array.make n None in
        let threads =
          Array.mapi (fun i c -> Thread.create (fun () -> results.(i) <- Some (Client.commit c)) ()) clients
        in
        Array.iter Thread.join threads;
        let groups =
          Array.map
            (function
              | Some (Ok (Client.Committed { group; _ })) -> group
              | Some (Ok (Client.Conflicted { oid })) ->
                Alcotest.failf "disjoint commit conflicted on oid %d" oid
              | Some (Error msg) -> Alcotest.failf "commit failed: %s" msg
              | None -> Alcotest.fail "commit thread died")
            results
        in
        check tbool "some group batched at least half the clients" true
          (Array.exists (fun g -> g >= n / 2) groups)
      done;
      (* once repinned, the first client to connect reads every other
         client's last row, wherever the server allocated it *)
      ignore (commit_ok clients.(0));
      for k = 0 to n - 1 do
        check tint
          (Printf.sprintf "r%d's round-%d row visible" k rounds)
          1
          (int_result
             (eval_ok clients.(0)
                (Printf.sprintf "count(select x from x in r%d where x.1 == %d end)" k rounds)))
      done;
      Array.iter Client.close clients;
      let commits = Metrics.counter_value (Metrics.counter "server.commits") - commits0 in
      let groups = Metrics.counter_value (Metrics.counter "server.group_commits") - groups0 in
      check tint "every client commit sealed" (n * rounds) commits;
      check tbool "measurably fewer seals than commits" true (groups * 2 <= commits);
      (* the ratio the Stat frame reports *)
      let probe = Client.connect addr in
      let json = Client.stats probe in
      Client.close probe;
      check tbool "stats report fsync_amortization" true
        (contains ~needle:"\"fsync_amortization\":" json))

(* --- conflicts ------------------------------------------------------- *)

let test_first_committer_wins () =
  with_server (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let r = relation(tuple(1, 10))");
      ignore (commit_ok setup);
      Client.close setup;
      let a = Client.connect addr in
      let b = Client.connect addr in
      ignore (eval_ok a "do insert(r, tuple(2, 20)) end");
      ignore (eval_ok b "do insert(r, tuple(3, 30)) end");
      ignore (commit_ok a);
      (match Client.commit b with
      | Ok (Client.Conflicted _) -> ()
      | Ok (Client.Committed _) -> Alcotest.fail "stale writer must conflict"
      | Error msg -> Alcotest.failf "commit failed: %s" msg);
      (* the loser's client follows its session to the reopened epoch *)
      let stat_epoch =
        Scanf.sscanf (Client.stats b) "{\"session\":{\"id\":%d,\"epoch\":%d" (fun _ e -> e)
      in
      check tint "the loser's client epoch is its session's" stat_epoch (Client.epoch b);
      (* first committer's row is in, the loser's is not *)
      let probe = Client.connect addr in
      check tint "only the winner's insert landed" 2 (int_result (eval_ok probe "count(r)"));
      Client.close probe;
      (* the conflict aborted the loser: its insert is gone and it reads
         the winner's epoch, so a retry can win *)
      check tint "the loser's insert is gone" 2 (int_result (eval_ok b "count(r)"));
      check tint "the loser reads the winner's row" 1
        (int_result (eval_ok b "count(select x from x in r where x.1 == 2 end)"));
      ignore (eval_ok b "do insert(r, tuple(3, 30)) end");
      ignore (commit_ok b);
      let probe = Client.connect addr in
      check tint "the retry landed" 3 (int_result (eval_ok probe "count(r)"));
      Client.close probe;
      Client.close a;
      Client.close b)

(* A server from before conflicts carried the loser's epoch ends the
   frame after the OID: the client still reports the conflict, and keeps
   the epoch it had. *)
let test_old_server_conflict () =
  let sock = temp_path ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX sock);
      Unix.listen lfd 1;
      let old_server () =
        let fd, _ = Unix.accept lfd in
        let reply resp = Wire.write_frame fd (Wire.encode_resp resp) in
        let rec serve () =
          match Wire.read_frame fd with
          | None -> ()
          | Some frame ->
            (match fst (Wire.decode_req frame) with
            | Wire.Hello _ -> reply (Wire.Hello_ok { session = 1; epoch = 4; server = "old" })
            | Wire.Commit -> Wire.write_frame fd "\x84\x0c"
            | Wire.Bye -> reply Wire.Bye_ok
            | _ -> reply (Wire.Error "unsupported"));
            serve ()
        in
        Fun.protect ~finally:(fun () -> Unix.close fd) serve
      in
      let th = Thread.create old_server () in
      let c = Client.connect (Wire.Unix_path sock) in
      check tint "handshake epoch" 4 (Client.epoch c);
      (match Client.commit c with
      | Ok (Client.Conflicted { oid }) -> check tint "conflicting OID" 12 oid
      | Ok (Client.Committed _) -> Alcotest.fail "expected a conflict"
      | Error msg -> Alcotest.failf "commit failed: %s" msg);
      check tint "the client keeps its epoch" 4 (Client.epoch c);
      Client.close c;
      Thread.join th)

let test_conflict_within_one_group () =
  with_server ~window:0.15 (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let r = relation(tuple(1, 10))");
      ignore (commit_ok setup);
      Client.close setup;
      let a = Client.connect addr in
      let b = Client.connect addr in
      ignore (eval_ok a "do insert(r, tuple(2, 20)) end");
      ignore (eval_ok b "do insert(r, tuple(3, 30)) end");
      let ra = ref None and rb = ref None in
      let ta = Thread.create (fun () -> ra := Some (Client.commit a)) () in
      let tb = Thread.create (fun () -> rb := Some (Client.commit b)) () in
      Thread.join ta;
      Thread.join tb;
      let won r =
        match r with
        | Some (Ok (Client.Committed _)) -> true
        | Some (Ok (Client.Conflicted _)) -> false
        | _ -> Alcotest.fail "commit errored"
      in
      check tbool "exactly one of two same-OID writers wins" true (won !ra <> won !rb);
      Client.close a;
      Client.close b)

(* --- admission control and backpressure ------------------------------ *)

let test_busy_admission () =
  with_server ~max_clients:1 (fun addr _t ->
      let a = Client.connect addr in
      (match Client.connect addr with
      | (_ : Client.t) -> Alcotest.fail "second client must be shed"
      | exception Client.Client_error msg ->
        check tbool "shed with a busy reply" true
          (contains ~needle:"busy" (String.lowercase_ascii msg)));
      Client.close a;
      (* the slot frees once the session is gone *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec retry () =
        match Client.connect addr with
        | c -> Client.close c
        | exception Client.Client_error _ when Unix.gettimeofday () < deadline ->
          Thread.delay 0.05;
          retry ()
      in
      retry ())

let test_staged_cap () =
  with_server ~staged_cap:64 (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let big = relation(tuple(1, 10), tuple(2, 20), tuple(3, 30))");
      (match Client.eval c "1 + 1" with
      | Error msg ->
        check tbool "eval past the cap is shed" true
          (String.length msg >= 5 && String.sub msg 0 5 = "busy:")
      | Ok _ -> Alcotest.fail "eval past the staged cap must be refused");
      (* commit is always allowed: it is how the session gets back under *)
      ignore (commit_ok c);
      ignore (eval_ok c "1 + 1");
      Client.close c)

(* --- restart and shutdown ------------------------------------------- *)

let test_restart_recovers () =
  let store = temp_path ".tmlstore" in
  let sock = temp_path ".sock" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store then Sys.remove store;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let t = Server.start (config ~store ~sock ()) in
      let c = Client.connect (Wire.Unix_path sock) in
      ignore (eval_ok c "let keep = relation(tuple(7, 70))");
      ignore (commit_ok c);
      Client.close c;
      Server.stop t;
      Server.stop t;
      (* idempotent *)
      let t2 = Server.start (config ~store ~sock ()) in
      let c2 = Client.connect (Wire.Unix_path sock) in
      check tint "restarted server serves the committed state" 1
        (int_result (eval_ok c2 "count(keep)"));
      Client.close c2;
      Server.stop t2)

let test_shutdown_wakes_clients () =
  let store = temp_path ".tmlstore" in
  let sock = temp_path ".sock" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store then Sys.remove store;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let t = Server.start (config ~store ~sock ()) in
      let c = Client.connect (Wire.Unix_path sock) in
      ignore (eval_ok c "1 + 1");
      Server.stop t;
      match Client.eval c "2 + 2" with
      | Ok _ -> Alcotest.fail "eval must fail after shutdown"
      | Error _ -> ()
      | exception Client.Client_error _ -> ()
      | exception Wire.Wire_error _ -> ()
      | exception Unix.Unix_error _ -> ())

(* --- code and object shipping ---------------------------------------- *)

let test_fetch_and_pull () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let double(x: Int): Int = x * 2");
      (match Client.fetch_ptml c "double" with
      | Ok ptml -> (
        match Tml_store.Ptml.decode_value ptml with
        | (_ : Tml_core.Term.value) -> ()
        | exception Tml_store.Ptml.Decode_error msg ->
          Alcotest.failf "fetched PTML does not decode: %s" msg)
      | Error msg -> Alcotest.failf "fetch failed: %s" msg);
      (match Client.pull_object c 0 with
      | Ok payload -> check tbool "pulled a sealed object record" true (String.length payload > 0)
      | Error msg -> Alcotest.failf "pull failed: %s" msg);
      Client.close c)

(* --- wire codec ------------------------------------------------------ *)

let test_wire_roundtrip () =
  let reqs =
    [
      Wire.Hello { version = 1; client = "t" };
      Wire.Eval "count(r)";
      Wire.Commit;
      Wire.Stat;
      Wire.Explain "f";
      Wire.Fetch "f";
      Wire.Pull 42;
      Wire.Slowlog { json = true };
      Wire.Slowlog { json = false };
      Wire.Prom;
      Wire.Bye;
    ]
  in
  List.iter
    (fun req ->
      check tbool "req round trip" true (Wire.decode_req (Wire.encode_req req) = (req, None)))
    reqs;
  let resps =
    [
      Wire.Hello_ok { session = 3; epoch = 9; server = "tmld" };
      Wire.Result "- : 42\n";
      Wire.Committed { epoch = 4; objects = 7; group = 3 };
      Wire.Conflict { oid = 12; epoch = Some 5 };
      Wire.Conflict { oid = 12; epoch = None };
      Wire.Busy "b";
      Wire.Error "e";
      Wire.Stats "{}";
      Wire.Payload { kind = 1; data = "\x00\xffbin" };
      Wire.Bye_ok;
    ]
  in
  List.iter
    (fun resp ->
      check tbool "resp round trip" true (Wire.decode_resp (Wire.encode_resp resp) = resp))
    resps;
  match Wire.decode_req "\xee" with
  | (_ : Wire.req * Wire.trace_ctx option) -> Alcotest.fail "unknown tag must be rejected"
  | exception Wire.Wire_error _ -> ()

(* --- trace context --------------------------------------------------- *)

let test_trace_ctx_roundtrip () =
  let tc = { Wire.tc_id = 0x7abc123; tc_span = 42 } in
  List.iter
    (fun req ->
      check tbool "trace trailer round trips" true
        (Wire.decode_req (Wire.encode_req ~trace:tc req) = (req, Some tc)))
    [ Wire.Eval "count(r)"; Wire.Commit; Wire.Pull 9; Wire.Slowlog { json = false } ];
  (* an old client sends no trailer: the request must decode with no
     trace, not fail — version tolerance both ways *)
  check tbool "absent trailer decodes as None" true
    (Wire.decode_req (Wire.encode_req (Wire.Eval "1 + 1")) = (Wire.Eval "1 + 1", None));
  (* a future trailer tag after the request body is ignored, not fatal *)
  let framed = Wire.encode_req Wire.Commit ^ "\x5awhatever" in
  (match Wire.decode_req framed with
  | Wire.Commit, None -> ()
  | _ -> Alcotest.fail "unknown trailer must be tolerated");
  (* a conflict carries the loser's new epoch after the OID; an old
     server's frame ends after the OID and decodes with no epoch *)
  check tbool "old server's conflict decodes without an epoch" true
    (Wire.decode_resp "\x84\x0c" = Wire.Conflict { oid = 12; epoch = None });
  check tbool "the epoch follows the OID" true
    (Wire.encode_resp (Wire.Conflict { oid = 12; epoch = Some 5 }) = "\x84\x0c\x05");
  (* ~trace:false clients advertise no id *)
  with_server (fun addr _t ->
      let c = Client.connect ~trace:false addr in
      ignore (eval_ok c "1 + 1");
      check tint "no trace id without injection" 0 (Client.last_trace_id c);
      Client.close c;
      let traced = Client.connect addr in
      ignore (eval_ok traced "2 + 2");
      check tbool "traced client advertises an id" true (Client.last_trace_id traced > 0);
      Client.close traced)

(* --- slow-query log -------------------------------------------------- *)

let test_slowlog_over_wire () =
  (* a threshold of one nanosecond: every request is "slow" *)
  with_server ~slow_ms:0.000001 (fun addr t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (eval_ok c "count(r)");
      let log = Server.slowlog t in
      check tbool "entries were captured" true (Tml_obs.Slowlog.length log >= 2);
      let entry =
        List.find
          (fun e -> contains ~needle:"count(r)" e.Tml_obs.Slowlog.sl_source)
          (Tml_obs.Slowlog.entries log)
      in
      check tbool "entry carries the request's trace id" true
        (entry.Tml_obs.Slowlog.sl_trace = Client.last_trace_id c);
      check tbool "entry counted vm steps" true (entry.Tml_obs.Slowlog.sl_steps > 0);
      (* the wire surfaces: text names the source, JSON parses the shape *)
      let text = Client.slowlog c in
      check tbool "text rendering names the query" true (contains ~needle:"count(r)" text);
      let json = Client.slowlog ~json:true c in
      check tbool "json rendering has entries" true (contains ~needle:"\"entries\":" json);
      check tbool "json rendering names the query" true (contains ~needle:"count(r)" json);
      (* the eval-lock histograms decomposing request latency filled up *)
      check tbool "eval_lock.wait_s observed" true
        (Metrics.histogram_count (Metrics.histogram "eval_lock.wait_s") > 0);
      check tbool "eval_lock.hold_s observed" true
        (Metrics.histogram_count (Metrics.histogram "eval_lock.hold_s") > 0);
      Client.close c)

let test_slowlog_survives_restart () =
  let store = temp_path ".tmlstore" in
  let sock = temp_path ".sock" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store then Sys.remove store;
      if Sys.file_exists (store ^ ".slowlog") then Sys.remove (store ^ ".slowlog");
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let t = Server.start (config ~slow_ms:0.000001 ~store ~sock ()) in
      let c = Client.connect (Wire.Unix_path sock) in
      ignore (eval_ok c "let r = relation(tuple(7, 70))");
      Client.close c;
      Server.stop t;
      (* a fresh process (new server value) reloads the sidecar ring *)
      let t2 = Server.start (config ~slow_ms:0.000001 ~store ~sock ()) in
      let reloaded = Server.slowlog t2 in
      check tbool "slow log survived the restart" true (Tml_obs.Slowlog.length reloaded >= 1);
      check tbool "reloaded entry names the query" true
        (List.exists
           (fun e -> contains ~needle:"relation(tuple(7, 70))" e.Tml_obs.Slowlog.sl_source)
           (Tml_obs.Slowlog.entries reloaded));
      Server.stop t2)

(* --- read-only evals leave nothing behind ------------------------------ *)

let reclaimed () = Metrics.counter_value (Metrics.counter "server.evals_reclaimed")

(* an integer in the session's Stat frame: the one after the last of
   [keys], each found after the one before *)
let stat_int c keys =
  let s = Client.stats c in
  let rec find i key =
    if i + String.length key > String.length s then Alcotest.failf "no %s in %s" key s
    else if String.sub s i (String.length key) = key then i + String.length key
    else find (i + 1) key
  in
  let at = List.fold_left find 0 keys in
  Scanf.sscanf (String.sub s at (min 20 (String.length s - at))) "%d" Fun.id

(* the session's uncommitted object count *)
let staged_objects c = stat_int c [ "\"staged_objects\":" ]

let test_read_only_evals_stage_nothing () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (eval_ok c "let f(x: Int): Int = count(r) + x");
      let epoch, _, _ = commit_ok c in
      (* a fresh relation's OID shows where the allocation cursor is *)
      let probe = eval_ok c "relation(tuple(1, 2))" in
      let before = reclaimed () in
      for i = 1 to 1000 do
        ignore (eval_ok c (if i mod 2 = 0 then "count(r)" else Printf.sprintf "f(%d)" i))
      done;
      check tint "every read-only eval reclaimed" 1000 (reclaimed () - before);
      check tint "nothing staged" 0 (staged_objects c);
      check Alcotest.string "allocation cursor unchanged" probe
        (eval_ok c "relation(tuple(1, 2))");
      let epoch', objects, _ = commit_ok c in
      check tint "the next commit seals nothing" 0 objects;
      check tint "and does not advance the epoch" epoch epoch';
      check tint "reads still see the data" 2 (int_result (eval_ok c "count(r)"));
      Client.close c)

(* An eval that defines a name, changes an older object, or follows an
   uncommitted write keeps everything it allocated — and all of it
   survives a restart. *)
let test_reclamation_gates () =
  let store = temp_path ".tmlstore" in
  let sock = temp_path ".sock" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store then Sys.remove store;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let t = Server.start (config ~store ~sock ()) in
      let c = Client.connect (Wire.Unix_path sock) in
      ignore (eval_ok c "let r = relation(tuple(1, 10))");
      ignore (eval_ok c "let a = array(2, relation(tuple(0, 0)))");
      ignore (commit_ok c);
      let kept name src =
        let before = reclaimed () in
        ignore (eval_ok c src);
        check tint (name ^ ": not reclaimed") 0 (reclaimed () - before)
      in
      let commits_objects name =
        let _, objects, _ = commit_ok c in
        check tbool (name ^ ": commit seals its objects") true (objects > 0)
      in
      kept "definition" "let s = relation(tuple(5, 50), tuple(6, 60))";
      commits_objects "definition";
      kept "insert" "do insert(r, tuple(2, 20)) end";
      commits_objects "insert";
      kept "store into an array" "do a[1] := relation(tuple(7, 70), tuple(8, 80), tuple(9, 90)) end";
      commits_objects "store into an array";
      kept "write" "do insert(r, tuple(3, 30)) end";
      kept "read after an uncommitted write" "count(r)";
      kept "another read" "count(a[1])";
      commits_objects "reads after a write";
      Client.close c;
      Server.stop t;
      let t2 = Server.start (config ~store ~sock ()) in
      let c2 = Client.connect (Wire.Unix_path sock) in
      check tint "defined relation survives" 2 (int_result (eval_ok c2 "count(s)"));
      check tint "inserted rows survive" 3 (int_result (eval_ok c2 "count(r)"));
      check tint "stored relation survives" 3 (int_result (eval_ok c2 "count(a[1])"));
      Client.close c2;
      Server.stop t2)

(* Expression functions share one name and, reclaimed, one OID: the VM
   profiler's (tier, name#oid) table grows per function, not per eval. *)
let test_vmprof_table_bounded () =
  let module Vmprof = Tml_vm.Vmprof in
  let saved = !Vmprof.enabled in
  Vmprof.enabled := true;
  Vmprof.reset ();
  Fun.protect
    ~finally:(fun () ->
      Vmprof.enabled := saved;
      Vmprof.reset ())
    (fun () ->
      with_server (fun addr _t ->
          let c = Client.connect addr in
          ignore (eval_ok c "let f(x: Int): Int = x + 1");
          ignore (commit_ok c);
          let run lo hi =
            for i = lo to hi do
              ignore (eval_ok c (Printf.sprintf "f(%d)" i))
            done
          in
          run 1 100;
          let size = List.length (Vmprof.samples ()) in
          run 101 10_000;
          check tint "profile table size constant over 10 000 evals" size
            (List.length (Vmprof.samples ()));
          Client.close c))

(* --- request spans ---------------------------------------------------- *)

let test_commit_spans_carry_group_id () =
  let module Trace = Tml_obs.Trace in
  let sink, drain = Trace.memory_sink () in
  let id = Trace.add_sink sink in
  Trace.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.enabled := false;
      Trace.remove_sink id)
    (fun () ->
      with_server (fun addr _t ->
          let c = Client.connect addr in
          ignore (eval_ok c "let r = relation(tuple(1, 10))");
          ignore (commit_ok c);
          let trace_id = Client.last_trace_id c in
          (* an empty commit seals nothing and joins no group *)
          let _, objects, group = commit_ok c in
          check tint "empty commit: no objects" 0 objects;
          check tint "empty commit: no group" 0 group;
          let empty_trace_id = Client.last_trace_id c in
          Client.close c;
          let events = drain () in
          let arg_int name ev =
            match List.assoc_opt name ev.Trace.ev_args with
            | Some (Trace.Int v) -> Some v
            | _ -> None
          in
          (* the fsync group span is tagged with its group id *)
          let group_gid =
            List.find_map
              (fun ev ->
                if ev.Trace.ev_name = "commit.group" && ev.Trace.ev_ph = Trace.B then
                  arg_int "group" ev
                else None)
              events
          in
          (match group_gid with
          | Some gid -> check tbool "group span has a positive gid" true (gid > 0)
          | None -> Alcotest.fail "no commit.group span with a group id");
          (* the sealed instant joins the request's trace id to that gid *)
          let sealed =
            List.find_opt
              (fun ev ->
                ev.Trace.ev_name = "commit.sealed"
                && arg_int "trace" ev = Some trace_id
                && arg_int "group" ev = group_gid)
              events
          in
          check tbool "commit.sealed joins trace id to group id" true (sealed <> None);
          check tbool "no commit.sealed for the empty commit" false
            (List.exists
               (fun ev ->
                 ev.Trace.ev_name = "commit.sealed"
                 && (arg_int "trace" ev = Some empty_trace_id || arg_int "group" ev = Some 0))
               events);
          (* the server wrapped the request in a span naming the phase *)
          check tbool "server.commit span emitted" true
            (List.exists
               (fun ev -> ev.Trace.ev_name = "server.commit" && ev.Trace.ev_ph = Trace.B)
               events);
          (* the server stamps real thread ids: the connection handler
             and the committer are different threads, so their spans
             must land on different Chrome tracks *)
          let tids = List.sort_uniq compare (List.map (fun ev -> ev.Trace.ev_tid) events) in
          check tbool "spans span multiple threads" true (List.length tids >= 2)))

(* --- one allocation cursor ------------------------------------------ *)

(* A session that connected before a writer still faults the writer's
   rows once its pin moves past the writer's commit. *)
let test_reader_faults_later_writers_rows () =
  with_server (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (commit_ok setup);
      Client.close setup;
      let reader = Client.connect addr in
      let writer = Client.connect addr in
      ignore (eval_ok writer "do insert(r, tuple(3, 30)) end");
      ignore (commit_ok writer);
      (* an empty commit: nothing to seal, it only moves the pin *)
      ignore (commit_ok reader);
      check tint "reader reads the writer's row" 1
        (int_result (eval_ok reader "count(select x from x in r where x.2 == 30 end)"));
      Client.close reader;
      Client.close writer)

(* One Eval may allocate any number of OIDs. *)
let test_large_eval_commits () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let big = relation(tuple(0, 0))");
      ignore (commit_ok c);
      ignore (eval_ok c "do for i = 1 upto 70000 do insert(big, tuple(i, i)) end end");
      let _, objects, _ = commit_ok c in
      check tbool "the commit seals the inserted rows" true (objects > 70000);
      Client.close c;
      let fresh = Client.connect addr in
      check tint "a fresh session counts every row" 70001
        (int_result (eval_ok fresh "count(big)"));
      Client.close fresh)

(* A reader's heap grows over the OIDs another session allocates, but
   none of them is the reader's to commit. *)
let test_reader_stages_nothing_beside_writer () =
  with_server (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (commit_ok setup);
      Client.close setup;
      let reader = Client.connect addr in
      let writer = Client.connect addr in
      ignore (eval_ok writer "do for i = 1 upto 50 do insert(r, tuple(i, i)) end end");
      ignore (commit_ok writer);
      check tint "pinned reader counts the seeded rows" 2
        (int_result (eval_ok reader "count(r)"));
      check tint "reader stages nothing" 0 (staged_objects reader);
      Client.close reader;
      Client.close writer)

(* Objects another session sealed in the same group as this session's
   commit sit past this session's watermark once it repins: reading them
   stages nothing. *)
let test_read_past_watermark_stages_nothing () =
  with_server ~window:0.5 (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (eval_ok setup "let s = relation(tuple(0, 0))");
      ignore (commit_ok setup);
      Client.close setup;
      let reader = Client.connect addr in
      let writer = Client.connect addr in
      ignore (eval_ok reader "do insert(s, tuple(1, 1)) end");
      (* the reader stages its commit first; the writer allocates after
         it and joins the same group *)
      let reader_commit = ref None in
      let th = Thread.create (fun () -> reader_commit := Some (Client.commit reader)) () in
      Thread.delay 0.1;
      ignore (eval_ok writer "do insert(r, tuple(3, 30)) end");
      ignore (commit_ok writer);
      Thread.join th;
      (match !reader_commit with
      | Some (Ok (Client.Committed { group; _ })) ->
        check tint "both commits share one group" 2 group
      | _ -> Alcotest.fail "the reader's commit failed");
      check tint "reader reads the writer's row" 1
        (int_result (eval_ok reader "count(select x from x in r where x.2 == 30 end)"));
      check tint "reader stages nothing" 0 (staged_objects reader);
      let _, objects, _ = commit_ok reader in
      check tint "its next commit seals nothing" 0 objects;
      Client.close reader;
      Client.close writer)

(* --- what a commit does to the session's cache ------------------------- *)

let object_faults () = Metrics.counter_value Tml_vm.Pstore.object_faults
let cache_invalidations () = Metrics.counter_value Tml_vm.Pstore.cache_invalidations

(* A repin drops exactly what other sessions sealed since the old pin,
   including objects this session wrote itself before: its copy of [r]
   must not outlive B's insert. *)
let lost_update_setup addr =
  let setup = Client.connect addr in
  ignore (eval_ok setup "let r = relation(tuple(1, 10))");
  ignore (commit_ok setup);
  Client.close setup;
  let a = Client.connect addr in
  let b = Client.connect addr in
  ignore (eval_ok a "do insert(r, tuple(2, 20)) end");
  ignore (commit_ok a);
  ignore (commit_ok b);
  ignore (eval_ok b "do insert(r, tuple(3, 30)) end");
  ignore (commit_ok b);
  let before = cache_invalidations () in
  ignore (commit_ok a);
  (a, b, cache_invalidations () - before)

let test_repin_sees_other_writers_rows () =
  with_server (fun addr _t ->
      let a, b, invalidated = lost_update_setup addr in
      check tint "A counts B's row" 3 (int_result (eval_ok a "count(r)"));
      check tbool "A's repin invalidated its copy of r" true (invalidated > 0);
      Client.close a;
      Client.close b)

let test_no_lost_update () =
  with_server (fun addr _t ->
      let a, b, _ = lost_update_setup addr in
      ignore (eval_ok a "do insert(r, tuple(4, 40)) end");
      ignore (commit_ok a);
      let fresh = Client.connect addr in
      check tint "every acknowledged row survives" 4 (int_result (eval_ok fresh "count(r)"));
      Client.close fresh;
      Client.close a;
      Client.close b)

(* A commit that touches one relation keeps the session's cached rows
   of another. *)
let test_commit_keeps_clean_cache () =
  with_server (fun addr _t ->
      let setup = Client.connect addr in
      ignore (eval_ok setup "let big = relation(tuple(0, 0))");
      ignore (eval_ok setup "let s = relation(tuple(0, 0))");
      ignore (eval_ok setup "do for i = 1 upto 1999 do insert(big, tuple(i, i)) end end");
      ignore (commit_ok setup);
      Client.close setup;
      let c = Client.connect addr in
      let scan = "count(select t from t in big where t.2 == 0 end)" in
      check tint "first scan" 1 (int_result (eval_ok c scan));
      ignore (eval_ok c "do insert(s, tuple(1, 1)) end");
      ignore (commit_ok c);
      let before = object_faults () in
      check tint "second scan" 1 (int_result (eval_ok c scan));
      check tint "the second scan faults nothing" 0 (object_faults () - before);
      Client.close c)

(* [:optimize] commits mid-request; the function objects the
   transaction created are dropped and fault back on the next call. *)
let test_created_functions_fault_back () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let f(x: Int): Int = x + 1");
      ignore (eval_ok c "let g(x: Int): Int = f(x) * 2");
      ignore (eval_ok c ":optimize g");
      ignore (commit_ok c);
      check tint "g(5) on the session" 12 (int_result (eval_ok c "g(5)"));
      let fresh = Client.connect addr in
      check tint "g(5) on a fresh session" 12 (int_result (eval_ok fresh "g(5)"));
      Client.close fresh;
      Client.close c)

(* --- one encode per commit ---------------------------------------------- *)

let objects_encoded () = Metrics.counter_value Tml_vm.Pstore.objects_encoded

(* The commit seals the batch its Eval collected: no object is encoded
   twice. *)
let test_eval_commit_encodes_once () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let r = relation(tuple(1, 10))");
      ignore (eval_ok c "do mkindex(r, 1) end");
      ignore (commit_ok c);
      let before = objects_encoded () in
      ignore (eval_ok c "do insert(r, tuple(2, 20)) end");
      let _, objects, _ = commit_ok c in
      check tbool "the commit seals the insert" true (objects > 0);
      check tint "each sealed object was encoded once" objects (objects_encoded () - before);
      Client.close c)

(* A second Eval drops the first one's batch: the commit writes both. *)
let test_two_evals_one_commit () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let r = relation(tuple(1, 10))");
      ignore (commit_ok c);
      ignore (eval_ok c "do insert(r, tuple(2, 20)) end");
      ignore (eval_ok c "do insert(r, tuple(3, 30)) end");
      ignore (commit_ok c);
      let fresh = Client.connect addr in
      check tint "a fresh session sees both rows" 3 (int_result (eval_ok fresh "count(r)"));
      Client.close fresh;
      Client.close c)

(* [:optimize] commits from inside its Eval: it seals what the session
   holds then, the optimized function with the earlier Eval's insert. *)
let test_optimize_between_eval_and_commit () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let r = relation(tuple(1, 10))");
      ignore (eval_ok c "let f(x: Int): Int = x + 1");
      ignore (eval_ok c "let g(x: Int): Int = f(x) * 2");
      ignore (commit_ok c);
      let ptml c = Result.get_ok (Client.fetch_ptml c "g") in
      let plain = ptml c in
      ignore (eval_ok c "do insert(r, tuple(2, 20)) end");
      ignore (eval_ok c ":optimize g");
      ignore (commit_ok c);
      let optimized = ptml c in
      check tbool "the optimizer rewrote g" false (String.equal plain optimized);
      let fresh = Client.connect addr in
      check Alcotest.string "a fresh session fetches the optimized g" optimized (ptml fresh);
      check tint "and sees the insert" 2 (int_result (eval_ok fresh "count(r)"));
      Client.close fresh;
      Client.close c)

let test_gets_encode_nothing () =
  with_server (fun addr _t ->
      let c = Client.connect addr in
      ignore (eval_ok c "let r = relation(tuple(1, 10), tuple(2, 20))");
      ignore (eval_ok c "do mkindex(r, 1) end");
      ignore (eval_ok c "let get(k: Int): Int = count(select t from t in r where t.1 == k end)");
      ignore (eval_ok c ":optimize get");
      ignore (commit_ok c);
      let before = objects_encoded () and reclaimed0 = reclaimed () in
      for i = 1 to 1000 do
        check tint "get" 1 (int_result (eval_ok c (Printf.sprintf "get(%d)" (1 + (i mod 2)))))
      done;
      check tint "1000 gets encode nothing" 0 (objects_encoded () - before);
      check tint "and each is reclaimed" 1000 (reclaimed () - reclaimed0);
      Client.close c)

(* --- the compiled tier ---------------------------------------------- *)

let test_gets_run_compiled () =
  let saved = !Tml_vm.Tierup.enabled in
  Tml_vm.Tierup.enabled := true;
  Fun.protect
    ~finally:(fun () -> Tml_vm.Tierup.enabled := saved)
    (fun () ->
      with_server (fun addr _t ->
          let c = Client.connect addr in
          ignore (eval_ok c "let r = relation(tuple(1, 10), tuple(2, 20))");
          ignore (eval_ok c "do mkindex(r, 1) end");
          ignore
            (eval_ok c "let get(k: Int): Int = count(select t from t in r where t.1 == k end)");
          ignore (commit_ok c);
          let tier_runs () = stat_int c [ "\"tier\":{"; "\"runs\":" ] in
          let runs0 = tier_runs () in
          for _ = 1 to 200 do
            check tint "get(2)" 1 (int_result (eval_ok c "get(2)"))
          done;
          let runs = tier_runs () - runs0 in
          check tbool (Printf.sprintf "gets entered compiled code (%d runs)" runs) true (runs > 0);
          Client.close c))

let () =
  (* a server tearing down a connection mid-write must surface as EPIPE,
     not kill the whole test binary *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Tml_vm.Runtime.install ();
  Tml_query.Qprims.install ();
  Alcotest.run "tml_server"
    [
      ( "wire",
        [
          Alcotest.test_case "message codec round trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "trace-context trailer" `Quick test_trace_ctx_roundtrip;
        ] );
      ( "observability",
        [
          Alcotest.test_case "slow-query log over the wire" `Quick test_slowlog_over_wire;
          Alcotest.test_case "slow-query log survives restart" `Quick
            test_slowlog_survives_restart;
          Alcotest.test_case "commit spans carry fsync group ids" `Quick
            test_commit_spans_carry_group_id;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "snapshot isolation across epochs" `Quick test_snapshot_isolation;
          Alcotest.test_case "first committer wins" `Quick test_first_committer_wins;
          Alcotest.test_case "conflict within one group" `Quick test_conflict_within_one_group;
          Alcotest.test_case "an old server's conflict keeps the epoch" `Quick
            test_old_server_conflict;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "fsync amortization across 16 clients" `Quick
            test_group_commit_amortization;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "admission control sheds load" `Quick test_busy_admission;
          Alcotest.test_case "staged-byte cap" `Quick test_staged_cap;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "restart recovers committed state" `Quick test_restart_recovers;
          Alcotest.test_case "shutdown wakes blocked clients" `Quick test_shutdown_wakes_clients;
          Alcotest.test_case "fetch PTML / pull objects" `Quick test_fetch_and_pull;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "1000 read-only evals stage nothing" `Quick
            test_read_only_evals_stage_nothing;
          Alcotest.test_case "gates keep their objects across a restart" `Quick
            test_reclamation_gates;
          Alcotest.test_case "vm profile table bounded" `Quick test_vmprof_table_bounded;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "reader faults a later writer's rows" `Quick
            test_reader_faults_later_writers_rows;
          Alcotest.test_case "one eval allocates past 65536 OIDs" `Quick
            test_large_eval_commits;
          Alcotest.test_case "reader stages nothing beside a writer" `Quick
            test_reader_stages_nothing_beside_writer;
          Alcotest.test_case "reading past the watermark stages nothing" `Quick
            test_read_past_watermark_stages_nothing;
        ] );
      ( "cache",
        [
          Alcotest.test_case "a repin drops what another session sealed" `Quick
            test_repin_sees_other_writers_rows;
          Alcotest.test_case "no lost update after a repin" `Quick test_no_lost_update;
          Alcotest.test_case "a commit keeps clean cached rows" `Quick
            test_commit_keeps_clean_cache;
          Alcotest.test_case "created functions fault back after a commit" `Quick
            test_created_functions_fault_back;
        ] );
      ( "batch",
        [
          Alcotest.test_case "an Eval and its Commit encode each object once" `Quick
            test_eval_commit_encodes_once;
          Alcotest.test_case "two Evals, one Commit: both are sealed" `Quick
            test_two_evals_one_commit;
          Alcotest.test_case "an :optimize before the Commit is sealed" `Quick
            test_optimize_between_eval_and_commit;
          Alcotest.test_case "1000 gets encode nothing" `Quick test_gets_encode_nothing;
        ] );
      ( "tier",
        [ Alcotest.test_case "repeated gets raise tier.runs" `Quick test_gets_run_compiled ] );
    ]
