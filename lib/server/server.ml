open Tml_core
open Tml_vm
open Tml_frontend
module Ls = Tml_store.Log_store
module Metrics = Tml_obs.Metrics
module Trace = Tml_obs.Trace
module Slowlog = Tml_obs.Slowlog

type config = {
  store_path : string;
  addr : Wire.addr;
  max_clients : int;
  commit_window : float;
  staged_cap : int;
  fsync : bool;
  slow_ms : float;  (* slow-query threshold in ms; 0 = log disabled *)
  slowlog_limit : int;
}

let default_config ~store_path ~addr =
  {
    store_path;
    addr;
    max_clients = 64;
    commit_window = 0.002;
    staged_cap = 16 * 1024 * 1024;
    fsync = true;
    slow_ms = 0.;
    slowlog_limit = 128;
  }

(* --- group committer requests -------------------------------------- *)

type commit_result =
  | Cr_committed of {
      sn : Ls.snapshot;
      epoch : int;
      objects : int;
      group : int;
      gid : int;  (* fsync group id, tagging this commit's trace span *)
    }
  | Cr_conflict of int

type commit_req = {
  cr_batch : (int * string) list;
  cr_root : int option;
  cr_epoch : int;  (* the requester's pinned epoch: its conflict horizon *)
  cr_enqueued : float;
  mutable cr_result : commit_result option;
}

(* --- per-connection session ---------------------------------------- *)

type session_state = {
  ss_id : int;
  ss_fd : Unix.file_descr;
  mutable ss_pstore : Pstore.t;  (* replaced when a conflict aborts the transaction *)
  mutable ss_repl : Repl.session;
  mutable ss_defined : bool;  (* manifest changed since the last commit *)
  mutable ss_batch : (int * string) list option;
      (* what a commit would write, collected by the last Eval; stale once
         anything else runs on the session *)
  mutable ss_staged_bytes : int;
  mutable ss_phase : string;  (* what the session is doing, for :top *)
  mutable ss_requests : int;
}

type t = {
  config : config;
  log : Ls.t;
  listen_fd : Unix.file_descr;
  eval_lock : Mutex.t;
  mutable next_oid : int;  (* the one OID allocation cursor; eval lock only *)
  (* committer *)
  qlock : Mutex.t;
  qcond : Condition.t;  (* work arrived / committer should stop *)
  done_cond : Condition.t;  (* a group's results were published *)
  mutable queue : commit_req list;  (* newest first *)
  mutable committer_run : bool;
  (* connections *)
  clock : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  sessions : (int, session_state) Hashtbl.t;  (* live sessions, for :top *)
  mutable threads : Thread.t list;
  mutable next_session : int;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  mutable committer_thread : Thread.t option;
  mutable stopped : bool;
  stop_lock : Mutex.t;
  stop_cond : Condition.t;
  (* observability *)
  slowlog : Tml_obs.Slowlog.t;
  slowlog_path : string;
  mutable next_gid : int;  (* fsync group ids; committer thread only *)
  (* metrics *)
  m_connections : Metrics.counter;
  m_evals : Metrics.counter;
  m_commits : Metrics.counter;
  m_group_commits : Metrics.counter;
  m_conflicts : Metrics.counter;
  m_busy : Metrics.counter;
  m_slow : Metrics.counter;
  m_evals_reclaimed : Metrics.counter;  (* read-only Evals whose objects were dropped *)
  m_objects_reclaimed : Metrics.counter;
  m_latency : Metrics.histogram;
  m_lock_wait : Metrics.histogram;  (* eval_lock.wait_s *)
  m_lock_hold : Metrics.histogram;  (* eval_lock.hold_s *)
  m_group_wait : Metrics.histogram;  (* commit.group_wait_s *)
}

let active_sessions t =
  Mutex.lock t.clock;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.clock;
  n

let slowlog t = t.slowlog

exception Session_error of string

let sfail fmt = Format.kasprintf (fun s -> raise (Session_error s)) fmt

(* Stage the manifest (only if this session defined names — data-only
   commits must not touch the shared manifest OIDs, or every pair of
   concurrent writers would conflict on them) and encode the batch: the
   [kept] one the session's last Eval collected, with the manifest
   objects staging wrote encoded into it.  Caller holds the eval lock. *)
let prepare_commit ?kept ss =
  let staged = if ss.ss_defined then Some (Repl.stage ss.ss_repl ss.ss_pstore) else None in
  let batch =
    match (kept, staged) with
    | Some batch, None -> batch
    | Some batch, Some (_, written) -> Pstore.recollect ss.ss_pstore batch written
    | None, _ -> Pstore.collect ss.ss_pstore
  in
  (Option.map (fun (root, _) -> Oid.to_int root) staged, batch)

(* Hand a prepared batch to the group committer and wait for the group's
   seal.  Runs without the eval lock unless the caller (the optimizer's
   [durable_commit] hook) already holds it — the committer never takes
   the eval lock, so waiting while holding it cannot deadlock, it only
   stalls other evals for the commit window. *)
let submit_commit t ss (root, batch) =
  if batch = [] && root = None then begin
    (* nothing to seal, but a commit is still a transaction boundary:
       re-pin at the current epoch so the session now observes every
       commit sealed since its last pin *)
    let sn = Ls.pin t.log in
    Pstore.mark_committed ss.ss_pstore sn;
    ss.ss_defined <- false;
    ss.ss_staged_bytes <- 0;
    Cr_committed { sn; epoch = Pstore.epoch ss.ss_pstore; objects = 0; group = 0; gid = 0 }
  end
  else begin
    let req =
      {
        cr_batch = batch;
        cr_root = root;
        cr_epoch = Pstore.epoch ss.ss_pstore;
        cr_enqueued = !Trace.clock ();
        cr_result = None;
      }
    in
    Mutex.lock t.qlock;
    t.queue <- req :: t.queue;
    Condition.signal t.qcond;
    while req.cr_result = None do
      Condition.wait t.done_cond t.qlock
    done;
    Mutex.unlock t.qlock;
    let result = Option.get req.cr_result in
    (match result with
    | Cr_committed { sn; _ } ->
      (* the session thread is the only user of its pstore, and it is
         right here — safe to repin and drop what others sealed *)
      Pstore.mark_committed ss.ss_pstore sn;
      ss.ss_defined <- false;
      ss.ss_staged_bytes <- 0
    | Cr_conflict _ -> ());
    result
  end

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Take the eval lock with its two phases measured: how long this
   request queued behind other sessions' evals (the E13 p99 suspect)
   and how long it then kept everyone else out.  Both are histograms in
   the registry and, when tracing, spans in the request's trace. *)
let eval_locked t f =
  let t0 = !Trace.clock () in
  Trace.with_span ~cat:"server" "eval_lock.wait" (fun () -> Mutex.lock t.eval_lock);
  let t1 = !Trace.clock () in
  Metrics.observe t.m_lock_wait (t1 -. t0);
  Fun.protect
    ~finally:(fun () ->
      Metrics.observe t.m_lock_hold (!Trace.clock () -. t1);
      Mutex.unlock t.eval_lock)
    (fun () -> Trace.with_span ~cat:"server" "eval_lock.hold" f)

let heap_of ss = (Repl.ctx ss.ss_repl).Runtime.heap

(* Run [f] under the eval lock with the session's heap allocating from
   the one server-wide cursor: the heap first grows to [next_oid] (so it
   can also fault whatever another session sealed below it), and on the
   way out the cursor follows the heap.  Only a reclaimed read-only Eval
   shrinks a heap, and never below where its section began, so the
   cursor never moves back past an OID some session still holds.  [f]
   gets the batch the session's last Eval kept: whatever [f] runs
   makes it stale, so only a commit may seal it. *)
let session_locked t ss f =
  let heap = heap_of ss in
  eval_locked t (fun () ->
      Value.Heap.reserve heap t.next_oid;
      let kept = ss.ss_batch in
      ss.ss_batch <- None;
      Fun.protect ~finally:(fun () -> t.next_oid <- Value.Heap.size heap) (fun () -> f kept))

(* After an eval: reclaim a read-only Eval's fresh objects ([lo] is
   given for TL source that defined no names, see
   [Pstore.reclaim_from]), keep the batch a commit would write, and
   refresh the staged-byte figure the admission check reads.  A
   reclaimed Eval leaves nothing to write. *)
let after_eval t ss ?lo () =
  let size = Value.Heap.size (heap_of ss) in
  let batch =
    match lo with
    | Some lo -> (
      match Pstore.reclaim_from ss.ss_pstore lo with
      | None ->
        Metrics.inc t.m_evals_reclaimed;
        Metrics.add t.m_objects_reclaimed (size - lo);
        Some []
      | batch -> batch)
    | None -> if t.config.staged_cap > 0 then Some (Pstore.collect ss.ss_pstore) else None
  in
  Option.iter
    (fun b ->
      ss.ss_batch <- Some b;
      ss.ss_staged_bytes <- List.fold_left (fun a (_, p) -> a + String.length p) 0 b)
    batch

(* --- slow-query log ------------------------------------------------- *)

(* Identifiers mentioned in a request's source: the join key between
   the request and the functions whose persistent derivation logs
   explain how its plan came to be. *)
let idents_of src =
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  let is_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_body c = is_start c || (c >= '0' && c <= '9') in
  while !i < n do
    if is_start src.[!i] then begin
      let j = ref !i in
      while !j < n && is_body src.[!j] do incr j done;
      let id = String.sub src !i (!j - !i) in
      if not (List.mem id !out) then out := id :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

(* Provenance of every named function the source touches: the rule
   names (and their enabling facts) that [tmlc --explain] would print —
   the slow-log entry and the explain output read the same persistent
   logs, so they can be cross-checked.  Caller holds the eval lock. *)
let fired_rules ss src =
  let fns = Repl.function_oids ss.ss_repl in
  let entries =
    List.concat_map
      (fun id ->
        match List.assoc_opt id fns with
        | None -> []
        | Some oid -> (
          match Tml_reflect.Reflect.provenance (Repl.ctx ss.ss_repl) oid with
          | Some prov -> prov
          | None -> []))
      (idents_of src)
  in
  let dedup l =
    List.rev
      (List.fold_left (fun acc x -> if x = "" || List.mem x acc then acc else x :: acc) [] l)
  in
  ( dedup (List.map (fun e -> e.Tml_obs.Provenance.pv_rule) entries),
    dedup (List.map (fun e -> e.Tml_obs.Provenance.pv_fact) entries) )

type slow_probe = {
  sp_t0 : float;
  sp_steps : int;
  sp_faults : int;
  sp_probes : int;
  sp_tier_runs : int;
}

let slow_probe ss =
  {
    sp_t0 = !Trace.clock ();
    sp_steps = (Repl.ctx ss.ss_repl).Runtime.steps;
    sp_faults = Metrics.counter_value Relcore.page_faults;
    sp_probes = Metrics.counter_value Tml_query.Rel.index_probes;
    sp_tier_runs = Metrics.counter_value Jit.runs;
  }

(* Called after an Eval/Pull completes.  [rules] must only be [true]
   when the caller holds the eval lock (provenance may fault objects
   from the store). *)
let note_slow t ss ?trace ~kind ~src ~rules probe =
  if t.config.slow_ms > 0. then begin
    let dur = !Trace.clock () -. probe.sp_t0 in
    if dur *. 1000. >= t.config.slow_ms then begin
      let rules, facts = if rules then fired_rules ss src else ([], []) in
      let tier_runs = Metrics.counter_value Jit.runs - probe.sp_tier_runs in
      let entry =
        {
          Slowlog.sl_trace =
            (match trace with Some tc -> tc.Wire.tc_id | None -> 0);
          sl_kind = kind;
          sl_source =
            (if String.length src > 512 then String.sub src 0 512 else src);
          sl_duration_s = dur;
          sl_steps = (Repl.ctx ss.ss_repl).Runtime.steps - probe.sp_steps;
          sl_tier = (if tier_runs > 0 then "tiered" else "machine");
          sl_page_faults = Metrics.counter_value Relcore.page_faults - probe.sp_faults;
          sl_index_probes = Metrics.counter_value Tml_query.Rel.index_probes - probe.sp_probes;
          sl_rules = rules;
          sl_facts = facts;
        }
      in
      Slowlog.add t.slowlog entry;
      Metrics.inc t.m_slow;
      Trace.instant ~cat:"server" "slow.query"
        ~args:
          [
            ("session", Trace.Int ss.ss_id);
            ("trace", Trace.Int entry.Slowlog.sl_trace);
            ("ms", Trace.Float (dur *. 1e3));
          ];
      (* durability is best-effort: a failed write must not fail the
         request that happened to be slow *)
      try Slowlog.save t.slowlog t.slowlog_path with
      | Sys_error _ -> ()
    end
  end

(* Live per-session/per-phase view for [tmlsh :top].  Reads the
   registry histograms and the session table; no eval lock needed. *)
let render_top t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "tmld: epoch %d, %d sessions, %d evals, %d commits (%d groups, %d conflicts, %d \
     slow, %d busy)\n"
    (Ls.seq t.log) (active_sessions t)
    (Metrics.counter_value t.m_evals)
    (Metrics.counter_value t.m_commits)
    (Metrics.counter_value t.m_group_commits)
    (Metrics.counter_value t.m_conflicts)
    (Metrics.counter_value t.m_slow)
    (Metrics.counter_value t.m_busy);
  Printf.bprintf buf
    "reclaimed: %d read-only evals, %d objects; store: %d object faults, %d cache \
     invalidations\n"
    (Metrics.counter_value t.m_evals_reclaimed)
    (Metrics.counter_value t.m_objects_reclaimed)
    (Metrics.counter_value Pstore.object_faults)
    (Metrics.counter_value Pstore.cache_invalidations);
  Printf.bprintf buf "phases (seconds):\n";
  let hist name h =
    Printf.bprintf buf "  %-22s count %-8d p50 %.6f  p99 %.6f\n" name
      (Metrics.histogram_count h)
      (Metrics.percentile h 0.5)
      (Metrics.percentile h 0.99)
  in
  hist "eval_lock.wait_s" t.m_lock_wait;
  hist "eval_lock.hold_s" t.m_lock_hold;
  hist "commit.group_wait_s" t.m_group_wait;
  hist "commit_latency_s" t.m_latency;
  Printf.bprintf buf "sessions:\n";
  Printf.bprintf buf "  %-5s %-6s %-6s %-11s %-12s %s\n" "id" "epoch" "reqs"
    "staged-obj" "staged-bytes" "phase";
  let sessions =
    locked t.clock (fun () -> Hashtbl.fold (fun _ ss acc -> ss :: acc) t.sessions [])
  in
  List.iter
    (fun ss ->
      Printf.bprintf buf "  %-5d %-6d %-6d %-11d %-12d %s\n" ss.ss_id
        (Pstore.epoch ss.ss_pstore) ss.ss_requests
        (Pstore.uncommitted_count ss.ss_pstore)
        ss.ss_staged_bytes ss.ss_phase)
    (List.sort (fun a b -> compare a.ss_id b.ss_id) sessions);
  Buffer.contents buf

(* Server-side directives carried in Eval frames; anything else is TL
   source for [Repl.feed].  Caller holds the eval lock. *)
let eval_directive t ss line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ ":top" ] -> render_top t
  | [ ":prof" ] -> Format.asprintf "%a" Vmprof.pp ()
  | [ ":prof"; "collapsed" ] -> Vmprof.collapsed ()
  | [ ":prof"; "reset" ] ->
    Vmprof.reset ();
    "vm profile reset\n"
  | [ ":names" ] ->
    String.concat ""
      (List.filter_map
         (fun (name, _) ->
           if String.contains name '!' then None else Some (name ^ "\n"))
         (Repl.function_oids ss.ss_repl))
  | [ ":optimize"; name ] -> (
    match Repl.function_oid ss.ss_repl name with
    | None -> sfail "no function named %s" name
    | Some oid ->
      let r = Tml_reflect.Reflect.optimize_inplace (Repl.ctx ss.ss_repl) oid in
      Printf.sprintf "optimized %s: static cost %d -> %d, %d calls inlined\n" name
        r.Tml_reflect.Reflect.report.Optimizer.cost_before
        r.Tml_reflect.Reflect.report.Optimizer.cost_after
        r.Tml_reflect.Reflect.inlined_calls)
  | [ ":optimize-all" ] ->
    let oids = List.map snd (Repl.function_oids ss.ss_repl) in
    Tml_reflect.Reflect.optimize_all (Repl.ctx ss.ss_repl) oids;
    Printf.sprintf "optimized %d functions\n" (List.length oids)
  | _ -> sfail "unknown server directive %s" line

let handle_eval t ss ?trace src =
  if t.config.staged_cap > 0 && ss.ss_staged_bytes > t.config.staged_cap then
    Wire.Busy
      (Printf.sprintf "staged bytes %d exceed per-session cap %d; commit first"
         ss.ss_staged_bytes t.config.staged_cap)
  else begin
    Metrics.inc t.m_evals;
    session_locked t ss (fun _ ->
        let probe = slow_probe ss in
        let out, lo =
          let line = String.trim src in
          if line <> "" && line.[0] = ':' then (eval_directive t ss line, None)
          else begin
            let lo = Value.Heap.size (heap_of ss) in
            let r = Repl.feed ss.ss_repl src in
            (* defining (or redefining) names dirties the manifest:
               this session's next commit must stage and re-root it *)
            if r.Repl.defined <> [] then ss.ss_defined <- true;
            (Repl.render r, if r.Repl.defined = [] then Some lo else None)
          end
        in
        after_eval t ss ?lo ();
        note_slow t ss ?trace ~kind:"eval" ~src ~rules:true probe;
        Wire.Result out)
  end

(* A session's view of the store, pinned at the current epoch with the
   manifest restored into a fresh heap.  Caller holds the eval lock. *)
let open_view t =
  let pstore = Pstore.open_snapshot t.log ~alloc_base:t.next_oid in
  match Repl.restore pstore with
  | exception e ->
    Pstore.close pstore;
    raise e
  | repl ->
    (* restoring the manifest may allocate: the cursor follows *)
    t.next_oid <- Value.Heap.size (Pstore.heap pstore);
    (pstore, repl)

(* Give [ss] a fresh view.  The reflective optimizer persists rewrites
   through the [durable_commit] hook (section 4.1); on the server that
   means a synchronous trip through the group committer.  Caller holds
   the eval lock. *)
let install_view t ss (pstore, repl) =
  ss.ss_pstore <- pstore;
  ss.ss_repl <- repl;
  ss.ss_defined <- false;
  ss.ss_batch <- None;
  ss.ss_staged_bytes <- 0;
  (Repl.ctx repl).Runtime.durable_commit <-
    Some
      (fun () ->
        match submit_commit t ss (prepare_commit ss) with
        | Cr_committed _ -> ()
        | Cr_conflict oid ->
          Runtime.fault "commit conflict on oid %d: another session won the race" oid)

(* A conflict loser aborts: its staged state goes with its old view, and
   the next request reads the current epoch, so a retry can win.  Not
   [session_locked]: the cursor must follow the new heap, not the old. *)
let abort t ss =
  eval_locked t (fun () ->
      let old = ss.ss_pstore in
      install_view t ss (open_view t);
      Pstore.close old)

let handle_commit t ss ?trace () =
  let prepared = session_locked t ss (fun kept -> prepare_commit ?kept ss) in
  match Trace.with_span ~cat:"server" "commit.submit" (fun () ->
            submit_commit t ss prepared)
  with
  | Cr_committed { epoch; objects; group; gid; _ } ->
    (* the join record between this request's trace and the fsync
       group that sealed it; an empty commit joined no group *)
    if gid > 0 then
      Trace.instant ~cat:"server" "commit.sealed"
        ~args:
          [
            ("session", Trace.Int ss.ss_id);
            ("trace", Trace.Int (match trace with Some tc -> tc.Wire.tc_id | None -> 0));
            ("group", Trace.Int gid);
            ("epoch", Trace.Int epoch);
          ];
    Wire.Committed { epoch; objects; group }
  | Cr_conflict oid ->
    abort t ss;
    Wire.Conflict { oid; epoch = Some (Pstore.epoch ss.ss_pstore) }

let handle_stat ss =
  Wire.Stats
    (Printf.sprintf
       {|{"session":{"id":%d,"epoch":%d,"staged_objects":%d,"staged_bytes":%d},"metrics":%s}|}
       ss.ss_id (Pstore.epoch ss.ss_pstore)
       (Pstore.uncommitted_count ss.ss_pstore)
       ss.ss_staged_bytes (Metrics.snapshot_json ()))

let handle_explain ss name =
  match Repl.function_oid ss.ss_repl name with
  | None -> sfail "no function named %s" name
  | Some oid -> (
    match Tml_reflect.Reflect.provenance (Repl.ctx ss.ss_repl) oid with
    | Some prov -> Wire.Result (Format.asprintf "%s: %a@." name Tml_obs.Provenance.pp prov)
    | None -> sfail "no recorded derivation for %s (not optimized yet?)" name)

let handle_fetch ss name =
  match Repl.function_oid ss.ss_repl name with
  | None -> sfail "no function named %s" name
  | Some oid -> (
    match Value.Heap.get_opt (heap_of ss) oid with
    | Some (Value.Func fo) -> Wire.Payload { kind = 0; data = fo.Value.fo_ptml }
    | Some _ -> sfail "%s is not a function object" name
    | None -> sfail "cannot fault function %s" name)

let handle_pull t ss ?trace oid =
  let probe = slow_probe ss in
  match Ls.find_at t.log (Pstore.snapshot ss.ss_pstore) oid with
  | Some data ->
    (* no eval lock here, so no provenance walk — rules stay empty *)
    note_slow t ss ?trace ~kind:"pull"
      ~src:(Printf.sprintf "pull #%d" oid)
      ~rules:false probe;
    Wire.Payload { kind = 1; data }
  | None -> sfail "no object %d at epoch %d" oid (Pstore.epoch ss.ss_pstore)

let req_phase = function
  | Wire.Eval _ -> "eval"
  | Wire.Commit -> "commit"
  | Wire.Stat -> "stat"
  | Wire.Explain _ -> "explain"
  | Wire.Fetch _ -> "fetch"
  | Wire.Pull _ -> "pull"
  | Wire.Slowlog _ -> "slowlog"
  | Wire.Prom -> "prom"
  | Wire.Hello _ -> "hello"
  | Wire.Bye -> "bye"

let handle_req t ss ?trace req =
  try
    match req with
    | Wire.Eval src -> handle_eval t ss ?trace src
    | Wire.Commit -> handle_commit t ss ?trace ()
    | Wire.Stat -> handle_stat ss
    | Wire.Explain name -> session_locked t ss (fun _ -> handle_explain ss name)
    | Wire.Fetch name -> session_locked t ss (fun _ -> handle_fetch ss name)
    | Wire.Pull oid -> handle_pull t ss ?trace oid
    | Wire.Slowlog { json } ->
      Wire.Stats
        (if json then Slowlog.to_json t.slowlog
         else Format.asprintf "%a" Slowlog.pp t.slowlog)
    | Wire.Prom -> Wire.Stats (Metrics.prometheus ())
    | Wire.Hello _ -> Wire.Error "already connected"
    | Wire.Bye -> Wire.Bye_ok
  with
  | Session_error msg -> Wire.Error msg
  | Lexer.Lex_error (pos, msg) ->
    Wire.Error (Format.asprintf "lexical error at %a: %s" Ast.pp_pos pos msg)
  | Parser.Parse_error (pos, msg) ->
    Wire.Error (Format.asprintf "syntax error at %a: %s" Ast.pp_pos pos msg)
  | Typecheck.Type_error (pos, msg) ->
    Wire.Error (Format.asprintf "type error at %a: %s" Ast.pp_pos pos msg)
  | Runtime.Fault msg -> Wire.Error ("runtime fault: " ^ msg)
  | Ls.Store_error msg | Pstore.Store_error msg -> Wire.Error ("store error: " ^ msg)

(* --- connection lifecycle ------------------------------------------ *)

let open_session t ~id ~fd =
  eval_locked t (fun () ->
      let pstore, repl = open_view t in
      let ss =
        {
          ss_id = id;
          ss_fd = fd;
          ss_pstore = pstore;
          ss_repl = repl;
          ss_defined = false;
          ss_batch = None;
          ss_staged_bytes = 0;
          ss_phase = "idle";
          ss_requests = 0;
        }
      in
      install_view t ss (pstore, repl);
      locked t.clock (fun () -> Hashtbl.replace t.sessions id ss);
      ss)

let close_session t ss =
  locked t.clock (fun () -> Hashtbl.remove t.sessions ss.ss_id);
  Pstore.close ss.ss_pstore

let serve t ss =
  let continue_ = ref true in
  while !continue_ do
    match Wire.read_frame ss.ss_fd with
    | None -> continue_ := false
    | Some payload ->
      let resp =
        match Wire.decode_req payload with
        | req, trace ->
          ss.ss_phase <- req_phase req;
          ss.ss_requests <- ss.ss_requests + 1;
          let run () = handle_req t ss ?trace req in
          let resp =
            if not !Trace.enabled then run ()
            else begin
              (* the per-request span: everything the server does for
                 this frame nests under it, stitched to the client by
                 the propagated trace id *)
              let args =
                ("session", Trace.Int ss.ss_id)
                ::
                (match trace with
                | Some tc ->
                  [ ("trace", Trace.Int tc.Wire.tc_id);
                    ("parent", Trace.Int tc.Wire.tc_span) ]
                | None -> [])
              in
              Trace.with_span ~cat:"server" ~args ("server." ^ req_phase req) run
            end
          in
          ss.ss_phase <- "idle";
          resp
        | exception Wire.Wire_error msg -> Wire.Error msg
      in
      Wire.write_frame ss.ss_fd (Wire.encode_resp resp);
      if resp = Wire.Bye_ok then continue_ := false
  done

let handle_conn t fd =
  let id =
    Mutex.lock t.clock;
    let id = t.next_session in
    t.next_session <- id + 1;
    Hashtbl.replace t.conns id fd;
    Mutex.unlock t.clock;
    id
  in
  let cleanup () =
    Mutex.lock t.clock;
    Hashtbl.remove t.conns id;
    Mutex.unlock t.clock;
    try Unix.close fd with
    | Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      try
        match Wire.read_frame fd with
        | None -> ()
        | Some payload -> (
          match Wire.decode_req payload with
          | Wire.Hello { version; client = _ }, _ when version = Wire.protocol_version ->
            let ss = open_session t ~id ~fd in
            Fun.protect
              ~finally:(fun () -> close_session t ss)
              (fun () ->
                Wire.write_frame fd
                  (Wire.encode_resp
                     (Wire.Hello_ok
                        { session = id; epoch = Pstore.epoch ss.ss_pstore; server = "tmld" }));
                serve t ss)
          | Wire.Hello { version; _ }, _ ->
            Wire.write_frame fd
              (Wire.encode_resp
                 (Wire.Error
                    (Printf.sprintf "protocol version %d unsupported (want %d)" version
                       Wire.protocol_version)))
          | _, _ -> Wire.write_frame fd (Wire.encode_resp (Wire.Error "expected hello")))
      with
      | Wire.Wire_error _ | Unix.Unix_error _ | End_of_file -> ())

(* --- group committer ------------------------------------------------ *)

let process_group t group =
  let gid = t.next_gid in
  t.next_gid <- gid + 1;
  (* how long each request sat in the queue before its group started:
     the batching-window share of commit latency *)
  let started = !Trace.clock () in
  List.iter (fun req -> Metrics.observe t.m_group_wait (started -. req.cr_enqueued)) group;
  Trace.with_span ~cat:"server"
    ~args:[ ("group", Trace.Int gid); ("requests", Trace.Int (List.length group)) ]
    "commit.group"
  @@ fun () ->
  let claimed = Hashtbl.create 64 in
  let root = ref None in
  let winners = ref [] in
  let results = ref [] in
  List.iter
    (fun req ->
      let conflict =
        List.find_map
          (fun (oid, _) ->
            if Hashtbl.mem claimed oid then Some oid
            else
              match Ls.latest_seq t.log oid with
              | Some s when s > req.cr_epoch -> Some oid
              | _ -> None)
          req.cr_batch
      in
      match conflict with
      | Some oid ->
        Metrics.inc t.m_conflicts;
        results := (req, Cr_conflict oid) :: !results
      | None ->
        List.iter (fun (oid, _) -> Hashtbl.replace claimed oid ()) req.cr_batch;
        (match req.cr_root with
        | Some r -> root := Some r
        | None -> ());
        winners := req :: !winners)
    group;
  if !winners <> [] then begin
    let batch = List.concat_map (fun req -> req.cr_batch) (List.rev !winners) in
    (* one seal, one fsync, for every winner of this window *)
    Trace.with_span ~cat:"server"
      ~args:[ ("group", Trace.Int gid); ("winners", Trace.Int (List.length !winners)) ]
      "commit.fsync"
      (fun () -> ignore (Ls.commit ?root:!root t.log batch));
    Metrics.inc t.m_group_commits;
    let epoch = Ls.seq t.log in
    let n = List.length !winners in
    let now = !Trace.clock () in
    List.iter
      (fun req ->
        Metrics.inc t.m_commits;
        Metrics.observe t.m_latency (now -. req.cr_enqueued);
        let sn = Ls.pin t.log in
        results :=
          (req, Cr_committed { sn; epoch; objects = List.length req.cr_batch; group = n; gid })
          :: !results)
      !winners
  end;
  Mutex.lock t.qlock;
  List.iter (fun (req, r) -> req.cr_result <- Some r) !results;
  Condition.broadcast t.done_cond;
  Mutex.unlock t.qlock

let committer_loop t =
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.qlock;
    while t.committer_run && t.queue = [] do
      Condition.wait t.qcond t.qlock
    done;
    if t.queue = [] then begin
      (* stopping and drained *)
      continue_ := false;
      Mutex.unlock t.qlock
    end
    else begin
      Mutex.unlock t.qlock;
      (* the batching window: requests arriving while we sleep (or while
         the previous group's fsync ran) join this group *)
      if t.committer_run && t.config.commit_window > 0. then
        Thread.delay t.config.commit_window;
      Mutex.lock t.qlock;
      let group = List.rev t.queue in
      t.queue <- [];
      Mutex.unlock t.qlock;
      process_group t group
    end
  done

(* --- accept loop ----------------------------------------------------- *)

(* Closing a listening fd does not wake a thread already blocked in
   [accept] (verified the hard way), so the loop polls with a short
   [select] timeout and re-checks [t.running] between rounds; [stop]
   then joins this thread before closing the fd. *)
let accept_loop t =
  let continue_ = ref true in
  while !continue_ && t.running do
    let readable =
      match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [ _ ], _, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      | exception Unix.Unix_error (_, _, _) ->
        continue_ := false;
        false
    in
    if readable && t.running then
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> continue_ := false
      | fd, _ ->
      Metrics.inc t.m_connections;
      if not t.running then (
        try Unix.close fd with
        | Unix.Unix_error _ -> ())
      else if active_sessions t >= t.config.max_clients then begin
        Metrics.inc t.m_busy;
        (* consume the hello so the refusal is read after a complete
           request/response exchange, then shed the connection *)
        (try
           ignore (Wire.read_frame fd);
           Wire.write_frame fd
             (Wire.encode_resp (Wire.Busy "server at max-clients; retry later"))
         with
        | Wire.Wire_error _ | Unix.Unix_error _ -> ());
        try Unix.close fd with
        | Unix.Unix_error _ -> ()
      end
      else begin
        let th = Thread.create (fun () -> handle_conn t fd) () in
        Mutex.lock t.clock;
        t.threads <- th :: t.threads;
        Mutex.unlock t.clock
      end
  done

(* --- lifecycle ------------------------------------------------------- *)

(* First start on a path: seed the store with a fresh stdlib session.
   Restart: recover and replay the manifest once, so a store that cannot
   restore fails the start instead of every connection. *)
let bootstrap config =
  if Sys.file_exists config.store_path then begin
    let pstore = Pstore.open_ config.store_path in
    match Repl.restore pstore with
    | exception e ->
      Pstore.close pstore;
      raise e
    | (_ : Repl.session) -> Pstore.close pstore
  end
  else begin
    let session = Repl.create () in
    let pstore =
      Pstore.attach ~fsync:config.fsync config.store_path
        (Repl.ctx session).Runtime.heap
    in
    ignore (Repl.persist session pstore);
    Pstore.close pstore
  end

let listen_on addr =
  let sockaddr = Wire.sockaddr_of_addr addr in
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match sockaddr with
  | Unix.ADDR_UNIX path -> if Sys.file_exists path then Unix.unlink path
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  (try Unix.bind fd sockaddr with
  | Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    failwith
      (Printf.sprintf "cannot bind %s: %s" (Wire.addr_to_string addr)
         (Unix.error_message e)));
  Unix.listen fd 64;
  fd

let register_server_metrics t =
  Ls.register_metrics t.log;
  Metrics.register_gc ();
  Metrics.register_source ~name:"server"
    ~snapshot:(fun () ->
      let commits = Metrics.counter_value t.m_commits in
      let groups = Metrics.counter_value t.m_group_commits in
      [
        "sessions_active", Metrics.I (active_sessions t);
        "epoch", Metrics.I (Ls.seq t.log);
        ( "fsync_amortization",
          Metrics.F (if groups = 0 then 0. else float_of_int commits /. float_of_int groups)
        );
        "slowlog_entries", Metrics.I (Tml_obs.Slowlog.length t.slowlog);
        "slowlog_dropped", Metrics.I (Tml_obs.Slowlog.dropped t.slowlog);
      ])
    ~reset:(fun () -> ())

let start config =
  bootstrap config;
  let log = Ls.open_ ~fsync:config.fsync config.store_path in
  let listen_fd = listen_on config.addr in
  let t =
    {
      config;
      log;
      listen_fd;
      eval_lock = Mutex.create ();
      next_oid = Ls.max_oid log + 1;
      qlock = Mutex.create ();
      qcond = Condition.create ();
      done_cond = Condition.create ();
      queue = [];
      committer_run = true;
      clock = Mutex.create ();
      conns = Hashtbl.create 32;
      sessions = Hashtbl.create 32;
      threads = [];
      next_session = 0;
      running = true;
      accept_thread = None;
      committer_thread = None;
      stopped = false;
      stop_lock = Mutex.create ();
      stop_cond = Condition.create ();
      slowlog =
        Tml_obs.Slowlog.load ~limit:config.slowlog_limit (config.store_path ^ ".slowlog");
      slowlog_path = config.store_path ^ ".slowlog";
      next_gid = 1;
      m_connections = Metrics.counter "server.connections";
      m_evals = Metrics.counter "server.evals";
      m_commits = Metrics.counter "server.commits";
      m_group_commits = Metrics.counter "server.group_commits";
      m_conflicts = Metrics.counter "server.conflicts";
      m_busy = Metrics.counter "server.busy";
      m_slow = Metrics.counter "server.slow_queries";
      m_evals_reclaimed = Metrics.counter "server.evals_reclaimed";
      m_objects_reclaimed = Metrics.counter "server.objects_reclaimed";
      m_latency = Metrics.histogram "server.commit_latency_s";
      m_lock_wait = Metrics.histogram "eval_lock.wait_s";
      m_lock_hold = Metrics.histogram "eval_lock.hold_s";
      m_group_wait = Metrics.histogram "commit.group_wait_s";
    }
  in
  register_server_metrics t;
  (* per-connection threads each get their own Perfetto track *)
  Trace.tid_source := (fun () -> Thread.id (Thread.self ()));
  t.committer_thread <- Some (Thread.create (fun () -> committer_loop t) ());
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  let already =
    Mutex.lock t.stop_lock;
    let a = t.stopped || not t.running in
    if not a then t.running <- false;
    Mutex.unlock t.stop_lock;
    a
  in
  if not already then begin
    (* the accept loop re-checks [running] at its next select round *)
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with
    | Unix.Unix_error _ -> ());
    (* wake every connection thread blocked in a read; in-flight
       requests (including queued commits) still finish *)
    Mutex.lock t.clock;
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with
        | Unix.Unix_error _ -> ())
      t.conns;
    let threads = t.threads in
    Mutex.unlock t.clock;
    List.iter Thread.join threads;
    (* no session can submit anymore: drain the committer and stop it *)
    Mutex.lock t.qlock;
    t.committer_run <- false;
    Condition.signal t.qcond;
    Mutex.unlock t.qlock;
    Option.iter Thread.join t.committer_thread;
    (* drain-time durability for the slow-query log (it also saves on
       every append; this catches a ring loaded from a previous run) *)
    (try Slowlog.save t.slowlog t.slowlog_path with
    | Sys_error _ -> ());
    Ls.close t.log;
    (match t.config.addr with
    | Wire.Unix_path path ->
      if Sys.file_exists path then ( try Unix.unlink path with
      | Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> ());
    Mutex.lock t.stop_lock;
    t.stopped <- true;
    Condition.broadcast t.stop_cond;
    Mutex.unlock t.stop_lock
  end

let wait t =
  Mutex.lock t.stop_lock;
  while not t.stopped do
    Condition.wait t.stop_cond t.stop_lock
  done;
  Mutex.unlock t.stop_lock
