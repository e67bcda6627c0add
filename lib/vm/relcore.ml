(* Paged relation segments and paged indexes.

   A relation stores its rows as a sequence of sealed row pages — plain
   [Value.Vector] store objects of exactly [rel_page_size] entries —
   then the rows of the unfilled last page: sealed chunks of
   [chunk_rows] rows, each a [Vector] store object too, and fewer than
   [chunk_rows] rows inline in the header.  When the chunks and the
   inline rows fill a page they are folded into one.  So an insert
   rewrites a header of its page OIDs, fewer than page/[chunk_rows]
   chunk OIDs and fewer than [chunk_rows] rows, and seals one small
   chunk every [chunk_rows] inserts.  A relation whose page size is at
   most [chunk_rows] has no chunks.  Pages and chunks are ordinary
   store objects: they fault on demand through [Pstore], are evicted
   like any other clean object, and are multi-version safe under [tmld]
   snapshots because each is just another OID in the log.  The header
   never holds the full row array.

   An index of at most [leaf_keys] keys is one [Index] object.  Past
   that, the object is a root whose directory lists leaves by low key,
   each an [Index] object of at most [leaf_keys] keys: an insert
   rewrites one leaf, and the root only when that leaf splits; a probe
   binary-searches the directory and faults one leaf.  An index of one
   object that holds more keys (built whole, or written by an older
   store) answers probes as it is and is paged on its next insert.

   This module only manipulates the in-heap structure and allocates
   page, chunk and leaf objects.  It reports the in-place writes of the
   index objects it picks itself; reporting the relation header's write
   ([Value.Heap.note_write]) after a mutation is the caller's job (see
   [Tml_query.Rel]). *)

open Tml_core

let default_page_size = ref 4096

(* rows per sealed chunk of the unfilled last page *)
let chunk_rows = 64

(* keys per index object before it is paged *)
let leaf_keys = 512

(* the first cells of the ["query"] source; [Tml_query.Rel] adds the
   rest *)
let page_faults = Tml_obs.Metrics.counter ~source:"query" "page_faults"
let pages_sealed = Tml_obs.Metrics.counter ~source:"query" "pages_sealed"
let row_cache_builds = Tml_obs.Metrics.counter ~source:"query" "row_cache_builds"

let make ?page_size name =
  let ps = match page_size with Some ps -> max 1 ps | None -> !default_page_size in
  {
    Value.rel_name = name;
    rel_page_size = ps;
    rel_pages = [||];
    rel_chunks = [||];
    rel_tail = [||];
    rel_tail_len = 0;
    rel_count = 0;
    rel_indexes = [];
    rel_stats = None;
    rel_triggers = [];
    rel_rows_cache = None;
  }

let length r = r.Value.rel_count

let kind_name = function
  | Value.Array _ -> "array"
  | Value.Vector _ -> "vector"
  | Value.Bytes _ -> "bytes"
  | Value.Tuple _ -> "tuple"
  | Value.Module _ -> "module"
  | Value.Relation _ -> "relation"
  | Value.Func _ -> "func"
  | Value.Index _ -> "index"
  | Value.Stats _ -> "stats"

(* The rows of a page or chunk object, faulting it from the store if
   needed. *)
let segment heap oid =
  if not (Value.Heap.is_loaded heap oid) then Tml_obs.Metrics.inc page_faults;
  match Value.Heap.get heap oid with
  | Value.Vector rows -> rows
  | obj ->
    invalid_arg
      (Printf.sprintf "Relcore.segment: %s holds %s, not a row page" (Oid.to_string oid)
         (kind_name obj))

let nth heap r i =
  if i < 0 || i >= r.Value.rel_count then
    invalid_arg (Printf.sprintf "Relcore.nth: %d out of bounds" i);
  let ps = r.Value.rel_page_size in
  let paged = Array.length r.Value.rel_pages * ps in
  if i < paged then (segment heap r.Value.rel_pages.(i / ps)).(i mod ps)
  else begin
    let j = i - paged in
    let c = j / chunk_rows in
    if c < Array.length r.Value.rel_chunks then
      (segment heap r.Value.rel_chunks.(c)).(j mod chunk_rows)
    else r.Value.rel_tail.(j - (Array.length r.Value.rel_chunks * chunk_rows))
  end

(* Iterate rows in position order, faulting each page and chunk once. *)
let iteri heap r f =
  let pos = ref 0 in
  let each oid =
    let rows = segment heap oid in
    for j = 0 to Array.length rows - 1 do
      f !pos rows.(j);
      incr pos
    done
  in
  Array.iter each r.Value.rel_pages;
  Array.iter each r.Value.rel_chunks;
  for j = 0 to r.Value.rel_tail_len - 1 do
    f !pos r.Value.rel_tail.(j);
    incr pos
  done

let iter heap r f = iteri heap r (fun _ v -> f v)

let fold heap r init f =
  let acc = ref init in
  iteri heap r (fun i v -> acc := f !acc i v);
  !acc

exception Found of int

(* First position where [f pos row] holds, scanning in order with early
   exit (pages past the hit are never faulted). *)
let find heap r f =
  try
    iteri heap r (fun i v -> if f i v then raise (Found i));
    None
  with Found i -> Some i

(* Drop the first [n] inline rows. *)
let drop_tail r n =
  let rest = r.Value.rel_tail_len - n in
  Array.blit r.Value.rel_tail n r.Value.rel_tail 0 rest;
  Array.fill r.Value.rel_tail rest n Value.Unit;
  r.Value.rel_tail_len <- rest

(* Append one row. Folds the chunks and inline rows into a fresh page
   object once they fill one, then seals whole chunks out of the inline
   rows. A header decoded with a long inline tail (an older store's, or
   [of_array]'s) takes this layout on its first append. The caller must
   follow up with [Heap.note_write] on the relation's own OID so the
   header mutation reaches the store. Returns the row's position. *)
let append heap r v =
  let ps = r.Value.rel_page_size in
  let pos = r.Value.rel_count in
  if r.Value.rel_tail_len >= Array.length r.Value.rel_tail then begin
    let bigger = Array.make (max 8 (2 * Array.length r.Value.rel_tail)) Value.Unit in
    Array.blit r.Value.rel_tail 0 bigger 0 r.Value.rel_tail_len;
    r.Value.rel_tail <- bigger
  end;
  r.Value.rel_tail.(r.Value.rel_tail_len) <- v;
  r.Value.rel_tail_len <- r.Value.rel_tail_len + 1;
  r.Value.rel_count <- pos + 1;
  while (Array.length r.Value.rel_chunks * chunk_rows) + r.Value.rel_tail_len >= ps do
    let page = Array.make ps Value.Unit in
    let filled =
      Array.fold_left
        (fun at oid ->
          let rows = segment heap oid in
          Array.blit rows 0 page at (Array.length rows);
          at + Array.length rows)
        0 r.Value.rel_chunks
    in
    Array.blit r.Value.rel_tail 0 page filled (ps - filled);
    drop_tail r (ps - filled);
    (* nothing refers to a folded chunk any more: a committed one can be
       faulted back, and one this transaction sealed is never written *)
    Array.iter (Value.Heap.evict heap) r.Value.rel_chunks;
    r.Value.rel_chunks <- [||];
    let oid = Value.Heap.alloc heap (Value.Vector page) in
    r.Value.rel_pages <- Array.append r.Value.rel_pages [| oid |];
    Tml_obs.Metrics.inc pages_sealed
  done;
  (* the rows after the pages are fewer than a page: only a page larger
     than a chunk gets here with a whole chunk inline *)
  while r.Value.rel_tail_len >= chunk_rows do
    let oid = Value.Heap.alloc heap (Value.Vector (Array.sub r.Value.rel_tail 0 chunk_rows)) in
    drop_tail r chunk_rows;
    r.Value.rel_chunks <- Array.append r.Value.rel_chunks [| oid |]
  done;
  r.Value.rel_rows_cache <- None;
  pos

(* Build a relation record from a row array, sealing full pages
   directly and keeping the rest inline (pages are allocated before the
   caller allocates the relation header, keeping allocation order
   deterministic across engines). *)
let of_array heap ?page_size name rows =
  let r = make ?page_size name in
  let ps = r.Value.rel_page_size in
  let n = Array.length rows in
  let npages = n / ps in
  let pages =
    Array.init npages (fun p ->
        let page = Array.sub rows (p * ps) ps in
        Tml_obs.Metrics.inc pages_sealed;
        Value.Heap.alloc heap (Value.Vector page))
  in
  let tail = Array.sub rows (npages * ps) (n - (npages * ps)) in
  r.Value.rel_pages <- pages;
  r.Value.rel_tail <- tail;
  r.Value.rel_tail_len <- Array.length tail;
  r.Value.rel_count <- n;
  r

(* Materialize the logical row array, memoized on the header. Positional
   access ([], size, move) goes through this; the query primitives use
   paged iteration instead and never build it. *)
let snapshot_rows heap r =
  match r.Value.rel_rows_cache with
  | Some rows -> rows
  | None ->
    Tml_obs.Metrics.inc row_cache_builds;
    let rows = Array.make r.Value.rel_count Value.Unit in
    iteri heap r (fun i v -> rows.(i) <- v);
    r.Value.rel_rows_cache <- Some rows;
    rows

(* How many of the relation's row pages are currently resident. *)
let pages_loaded heap r =
  Array.fold_left
    (fun n oid -> if Value.Heap.is_loaded heap oid then n + 1 else n)
    0 r.Value.rel_pages

let page_count r = Array.length r.Value.rel_pages

(* --- paged indexes ---------------------------------------------------- *)

let index_obj heap oid =
  match Value.Heap.get heap oid with
  | Value.Index ix -> ix
  | obj ->
    invalid_arg
      (Printf.sprintf "Relcore.index_obj: %s holds %s, not an index" (Oid.to_string oid)
         (kind_name obj))

(* The directory slot of the leaf that holds [key]: the last leaf whose
   low key is at or below it, or the first leaf. *)
let leaf_slot dir key =
  let lo = ref 0 and hi = ref (Array.length dir - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if compare (fst dir.(mid)) key <= 0 then lo := mid else hi := mid - 1
  done;
  !lo

(* [key]'s positions, newest first, faulting at most one leaf *)
let index_find heap ix key =
  let holder =
    if ix.Value.ix_leaves = [||] then ix
    else index_obj heap (snd ix.Value.ix_leaves.(leaf_slot ix.Value.ix_leaves key))
  in
  Value.Keys.find_opt key holder.Value.ix_keys

(* Every key with its positions (newest first), in key order. *)
let index_iter heap ix f =
  if ix.Value.ix_leaves = [||] then Value.Keys.iter f ix.Value.ix_keys
  else
    Array.iter
      (fun (_, oid) -> Value.Keys.iter f (index_obj heap oid).Value.ix_keys)
      ix.Value.ix_leaves

(* Distinct keys, counted over every leaf. *)
let index_distinct heap ix =
  if ix.Value.ix_leaves = [||] then ix.Value.ix_distinct
  else
    Array.fold_left
      (fun n (_, oid) -> n + (index_obj heap oid).Value.ix_distinct)
      0 ix.Value.ix_leaves

(* [ix]'s keys as leaves of at most [leaf_keys / 2] keys, sized as
   evenly as they divide, with their low keys, in key order.  One walk
   finds where each leaf starts; the map is then cut there. *)
let split_keys ix =
  let n = ix.Value.ix_distinct and half = leaf_keys / 2 in
  let m = (n + half - 1) / half in
  (* leaf [i] starts at the key of rank [i * n / m]: the starts of leaves
     1 .. m-1, highest first *)
  let starts = ref [] and rank = ref 0 and next = ref 1 in
  Value.Keys.iter
    (fun key _ ->
      if !next < m && !rank = !next * n / m then begin
        starts := key :: !starts;
        incr next
      end;
      incr rank)
    ix.Value.ix_keys;
  let leaf keys =
    { ix with Value.ix_keys = keys; ix_distinct = Value.Keys.cardinal keys; ix_leaves = [||] }
  in
  let first, leaves =
    List.fold_left
      (fun (keys, leaves) start ->
        let below, at, above = Value.Keys.split start keys in
        below, (start, leaf (Value.Keys.add start (Option.get at) above)) :: leaves)
      (ix.Value.ix_keys, []) !starts
  in
  (fst (Value.Keys.min_binding first), leaf first) :: leaves

(* Turn an index of one object into a root over fresh leaves. *)
let page_out heap ix =
  ix.Value.ix_leaves <-
    Array.of_list
      (List.map
         (fun (low, leaf) -> low, Value.Heap.alloc heap (Value.Index leaf))
         (split_keys ix));
  ix.Value.ix_keys <- Value.Keys.empty;
  ix.Value.ix_distinct <- 0

(* Allocate a freshly built index, paged if it holds more than
   [leaf_keys] keys. *)
let index_alloc heap ix =
  let oid = Value.Heap.alloc heap (Value.Index ix) in
  if ix.Value.ix_distinct > leaf_keys then page_out heap ix;
  oid

(* Record row [pos] under [key] in [ix], the index stored at [oid],
   reporting the write of each object it changes: the one leaf that
   holds [key], and the root only when that leaf splits. Says whether
   [key] is new. *)
let index_add heap oid ix key pos =
  if ix.Value.ix_leaves = [||] then begin
    let fresh = Value.index_add ix key pos in
    if ix.Value.ix_distinct > leaf_keys then page_out heap ix;
    Value.Heap.note_write heap oid;
    fresh
  end
  else begin
    let dir = ix.Value.ix_leaves in
    let slot = leaf_slot dir key in
    let leaf_oid = snd dir.(slot) in
    let leaf = index_obj heap leaf_oid in
    let fresh = Value.index_add leaf key pos in
    if leaf.Value.ix_distinct > leaf_keys then begin
      match split_keys leaf with
      | (_, first) :: rest ->
        leaf.Value.ix_keys <- first.Value.ix_keys;
        leaf.Value.ix_distinct <- first.Value.ix_distinct;
        let added =
          List.map (fun (low, piece) -> low, Value.Heap.alloc heap (Value.Index piece)) rest
        in
        ix.Value.ix_leaves <-
          Array.concat
            [ Array.sub dir 0 (slot + 1); Array.of_list added;
              Array.sub dir (slot + 1) (Array.length dir - slot - 1) ];
        Value.Heap.note_write heap oid
      | [] -> assert false
    end;
    Value.Heap.note_write heap leaf_oid;
    fresh
  end
