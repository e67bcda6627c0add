open Tml_core
module Ls = Tml_store.Log_store
module Stats = Tml_store.Store_stats

exception Store_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Store_error s)) fmt

type t = {
  store : Ls.t;
  heap : Value.Heap.heap;
  dirty : (int, unit) Hashtbl.t;
  mutable watermark : int;  (* OIDs >= watermark have never been committed *)
  mutable txn_base : int;  (* OIDs >= txn_base were allocated by the open
                              transaction; an adopted heap's objects sit below *)
  mutable in_fault : int;  (* depth of nested faults; suppresses hook bookkeeping *)
  mutable closed : bool;
  owns_log : bool;  (* snapshot sessions share the server's log; closing
                       them must not close it *)
  mutable snap : Ls.snapshot;  (* the pinned read view every fault reads *)
  mutable batch_oids : int list;  (* the OIDs of the last collect's batch *)
}

let heap t = t.heap
let log t = t.store
let stats t = Ls.stats t.store
let path t = Ls.path t.store

let root t = Option.map Oid.of_int (Ls.snapshot_root t.snap)
let epoch t = Ls.snapshot_seq t.snap
let snapshot t = t.snap
let check_open t = if t.closed then fail "persistent store %s is closed" (path t)

(* Past the watermark sit this session's fresh objects but also, on a
   shared log, objects other sessions sealed and this one faulted: only
   an object with no sealed version is staged. *)
let uncommitted_count t =
  let fresh = ref 0 in
  for ix = t.watermark to Value.Heap.size t.heap - 1 do
    if
      (not (Hashtbl.mem t.dirty ix))
      && Value.Heap.is_loaded t.heap (Oid.of_int ix)
      && Ls.latest_seq t.store ix = None
    then incr fresh
  done;
  Hashtbl.length t.dirty + !fresh

let mark_dirty t ix = Hashtbl.replace t.dirty ix ()

(* --- heap hooks --------------------------------------------------- *)

(* Every write reports itself, through [Heap.set] or [Heap.note_write];
   reads report nothing, so an object is dirty only once something wrote
   it. *)
let note_update t oid =
  if (not t.closed) && t.in_fault = 0 then mark_dirty t (Oid.to_int oid)

(* process-wide, so a server's sessions add up; the store's own stats
   block counts per log *)
let object_faults = Tml_obs.Metrics.counter "store.object_faults"

let cache_invalidations = Tml_obs.Metrics.counter "store.cache_invalidations"
let objects_encoded = Tml_obs.Metrics.counter "store.objects_encoded"

let backing_read t ix = Ls.find_at t.store t.snap ix

let fault t oid =
  if t.closed then None
  else begin
    let ix = Oid.to_int oid in
    match backing_read t ix with
    | None -> None
    | Some payload ->
      let st = stats t in
      st.Stats.faults <- st.Stats.faults + 1;
      Tml_obs.Metrics.inc object_faults;
      Tml_obs.Events.store_fault ~oid:ix ~bytes:(String.length payload);
      let obj, indexed =
        try Obj_codec.decode_obj payload with
        | Obj_codec.Codec_error msg -> fail "corrupt object %d: %s" ix msg
      in
      t.in_fault <- t.in_fault + 1;
      Fun.protect
        ~finally:(fun () -> t.in_fault <- t.in_fault - 1)
        (fun () ->
          (* Install before rebuilding indexes so rows referring back to
             the relation resolve instead of re-faulting forever. *)
          Value.Heap.set t.heap oid obj;
          if indexed <> [] then begin
            try Obj_codec.rebuild_relation_indexes t.heap oid indexed with
            | Obj_codec.Codec_error msg -> fail "corrupt relation %d: %s" ix msg
          end);
      (* [indexed <> []] means a legacy relation whose indexes were just
         rebuilt as fresh [Index] objects: dirty the header so the next
         commit rewrites it as REL1 referencing them (otherwise every
         reopen would orphan another generation of index objects). *)
      if indexed <> [] then mark_dirty t ix;
      Some obj
  end

(* --- lifecycle ---------------------------------------------------- *)

(* Every store pins its log: faults and [collect]'s comparisons read the
   pinned epoch, and a commit moves the pin. *)
let make ?(owns_log = true) ~snap ~store ~heap ~watermark () =
  let t =
    {
      store;
      heap;
      dirty = Hashtbl.create 64;
      watermark;
      txn_base = Value.Heap.size heap;
      in_fault = 0;
      closed = false;
      owns_log;
      snap;
      batch_oids = [];
    }
  in
  Value.Heap.set_fault_hook heap (fun oid -> fault t oid);
  Value.Heap.set_update_hook heap (note_update t);
  t

let attach ?fsync path heap =
  let store = Ls.create ?fsync path in
  make ~snap:(Ls.pin store) ~store ~heap ~watermark:0 ()

let create ?fsync path = attach ?fsync path (Value.Heap.create ())

let open_ ?fsync path =
  let store = Ls.open_ ?fsync path in
  let sn = Ls.pin store in
  let heap = Value.Heap.create () in
  let watermark = Ls.snapshot_max_oid sn + 1 in
  Value.Heap.reserve heap watermark;
  make ~snap:sn ~store ~heap ~watermark ()

let open_snapshot store ~alloc_base =
  let sn = Ls.pin store in
  let visible = Ls.snapshot_max_oid sn + 1 in
  if alloc_base < visible then begin
    Ls.release store sn;
    fail "open_snapshot: allocation base %d overlaps sealed OIDs (max %d)" alloc_base
      (visible - 1)
  end;
  let heap = Value.Heap.create () in
  Value.Heap.reserve heap alloc_base;
  make ~owns_log:false ~snap:sn ~store ~heap ~watermark:alloc_base ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Value.Heap.clear_hooks t.heap;
    Ls.release t.store t.snap;
    if t.owns_log then Ls.close t.store
  end

(* --- transactions ------------------------------------------------- *)

let to_write_oids t =
  let to_write = Hashtbl.create 64 in
  Hashtbl.iter (fun ix () -> Hashtbl.replace to_write ix ()) t.dirty;
  for ix = t.watermark to Value.Heap.size t.heap - 1 do
    if Value.Heap.is_loaded t.heap (Oid.of_int ix) then Hashtbl.replace to_write ix ()
  done;
  List.sort compare (Hashtbl.fold (fun ix () acc -> ix :: acc) to_write [])

let encode_at t ix =
  match Value.Heap.peek t.heap (Oid.of_int ix) with
  | None -> None
  | Some obj -> (
    match Obj_codec.encode_obj obj with
    | payload ->
      Tml_obs.Metrics.inc objects_encoded;
      Some payload
    | exception Obj_codec.Codec_error msg -> fail "cannot commit object %d: %s" ix msg)

(* The [(oid, payload)] pairs of [oids] a commit must write.  Objects
   whose encoding equals their version at the pinned epoch were written
   back unchanged (a relinked function whose bindings came out the same,
   a write of the value a slot already held) — they are dropped.  That
   holds at any OID: on a shared log, objects other sessions sealed can
   sit past this session's watermark. *)
let changed t oids =
  List.filter_map
    (fun ix ->
      match encode_at t ix with
      | None -> None
      | Some payload ->
        if
          match backing_read t ix with
          | Some sealed -> String.equal sealed payload
          | None -> false
        then None
        else Some (ix, payload))
    oids

let remember t batch =
  t.batch_oids <- List.map fst batch;
  batch

(* Encode everything a commit would write, without sealing: [commit]
   seals the batch itself, the server enqueues it with the group
   committer. *)
let collect t =
  check_open t;
  remember t (changed t (to_write_oids t))

let mark_committed t sn =
  check_open t;
  (* what other commits sealed since the old pin is stale here; this
     session's own batch is the sealed version at [sn]'s epoch, and
     everything else it holds is still current *)
  let stale = Ls.written_after t.store t.snap in
  Ls.release t.store t.snap;
  t.snap <- sn;
  let own = Hashtbl.create 64 in
  List.iter (fun ix -> Hashtbl.replace own ix ()) t.batch_oids;
  List.iter
    (fun ix ->
      let oid = Oid.of_int ix in
      if (not (Hashtbl.mem own ix)) && Value.Heap.is_loaded t.heap oid then begin
        Value.Heap.evict t.heap oid;
        Tml_obs.Metrics.inc cache_invalidations
      end)
    stale;
  (* function objects the transaction created are mostly one-shot
     expression functions: drop them, a call faults them back *)
  List.iter
    (fun ix ->
      let oid = Oid.of_int ix in
      match Value.Heap.peek t.heap oid with
      | Some (Value.Func _) when ix >= t.txn_base -> Value.Heap.evict t.heap oid
      | _ -> ())
    t.batch_oids;
  t.batch_oids <- [];
  Hashtbl.reset t.dirty;
  t.watermark <- max t.watermark (Value.Heap.size t.heap);
  t.txn_base <- Value.Heap.size t.heap

(* A commit now would write an object below [lo] exactly when one of
   them is fresh (an earlier Eval left it: loaded past the watermark
   with no sealed version) or dirty with an encoding that changed.  The
   rest of the loaded objects below [lo] were faulted and never written,
   so they encode as sealed.  Only the dirty objects below [lo] are
   encoded to decide, and a batch that has to be built reuses them. *)
let reclaim_from t lo =
  check_open t;
  if lo < t.watermark then
    invalid_arg
      (Printf.sprintf "Pstore.reclaim_from: %d is below the watermark %d" lo t.watermark);
  let oids = to_write_oids t in
  let below, rest = List.partition (fun ix -> ix < lo && Hashtbl.mem t.dirty ix) oids in
  if List.exists (fun ix -> ix < lo && Ls.latest_seq t.store ix = None) rest then
    Some (remember t (changed t oids))
  else
    match changed t below with
    | [] ->
      (* every older dirty object was written back unchanged: it is a
         clean copy again *)
      Hashtbl.reset t.dirty;
      t.batch_oids <- [];
      Value.Heap.truncate t.heap lo;
      None
    | written ->
      let by_oid (a, _) (b, _) = compare a b in
      Some (remember t (List.merge by_oid written (changed t rest)))

(* The same steps the server's group committer runs for each winner. *)
let commit ?root t =
  check_open t;
  if not t.owns_log then
    fail "snapshot-backed store %s: commits go through the server's group committer"
      (path t);
  let n = Ls.commit ?root:(Option.map Oid.to_int root) t.store (collect t) in
  mark_committed t (Ls.pin t.store);
  n

(* [Log_store.compact] refuses while a pin exists: drop this store's own
   pin around it and re-pin the compacted epoch, whatever happens. *)
let compact t =
  ignore (commit t);
  Ls.release t.store t.snap;
  Fun.protect ~finally:(fun () -> t.snap <- Ls.pin t.store) (fun () -> Ls.compact t.store)
