(* Paged relation segments.

   A relation stores its rows as a sequence of sealed row pages — plain
   [Value.Vector] store objects of exactly [rel_page_size] entries —
   plus a small in-header tail buffer for the rows of the last,
   unfilled page. Pages are ordinary store objects: they fault on
   demand through [Pstore], are evicted like any other clean object,
   and are multi-version safe under [tmld] snapshots because each page
   is just another OID in the log. The relation header never holds the
   full row array.

   This module only manipulates the in-heap structure (and allocates
   page objects); persistence discipline — reporting the header's
   in-place write ([Value.Heap.note_write]) after a mutation — is the
   caller's job (see [Tml_query.Rel]). *)

open Tml_core

let default_page_size = ref 4096

(* Counters surfaced through the [query] metrics source (registered by
   [Tml_query.Qprims.install]). *)
let page_faults = ref 0
let pages_sealed = ref 0
let row_cache_builds = ref 0

let make ?page_size name =
  let ps = match page_size with Some ps -> max 1 ps | None -> !default_page_size in
  {
    Value.rel_name = name;
    rel_page_size = ps;
    rel_pages = [||];
    rel_tail = [||];
    rel_tail_len = 0;
    rel_count = 0;
    rel_indexes = [];
    rel_stats = None;
    rel_triggers = [];
    rel_rows_cache = None;
  }

let length r = r.Value.rel_count

(* Fetch page [p] of [r], faulting it from the store if needed. *)
let page heap r p =
  let oid = r.Value.rel_pages.(p) in
  if not (Value.Heap.is_loaded heap oid) then incr page_faults;
  match Value.Heap.get heap oid with
  | Value.Vector rows -> rows
  | obj ->
    invalid_arg
      (Printf.sprintf "Relcore.page: %s holds %s, not a row page" (Oid.to_string oid)
         (match obj with
         | Value.Array _ -> "array"
         | Value.Bytes _ -> "bytes"
         | Value.Tuple _ -> "tuple"
         | Value.Module _ -> "module"
         | Value.Relation _ -> "relation"
         | Value.Func _ -> "func"
         | Value.Index _ -> "index"
         | Value.Stats _ -> "stats"
         | Value.Vector _ -> assert false))

let nth heap r i =
  if i < 0 || i >= r.Value.rel_count then
    invalid_arg (Printf.sprintf "Relcore.nth: %d out of bounds" i);
  let ps = r.Value.rel_page_size in
  let p = i / ps in
  if p < Array.length r.Value.rel_pages then (page heap r p).(i mod ps)
  else r.Value.rel_tail.(i - (Array.length r.Value.rel_pages * ps))

(* Iterate rows in position order, faulting each page once. *)
let iteri heap r f =
  let pos = ref 0 in
  for p = 0 to Array.length r.Value.rel_pages - 1 do
    let rows = page heap r p in
    for j = 0 to Array.length rows - 1 do
      f !pos rows.(j);
      incr pos
    done
  done;
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

(* Append one row. Seals a full tail into a fresh page object. The
   caller must follow up with [Heap.note_write] on the relation's own
   OID so the header mutation reaches the store. Returns the row's
   position. *)
let append heap r v =
  let ps = r.Value.rel_page_size in
  let pos = r.Value.rel_count in
  if r.Value.rel_tail_len >= Array.length r.Value.rel_tail then begin
    let cap = max ps (max 8 (2 * Array.length r.Value.rel_tail)) in
    let bigger = Array.make cap Value.Unit in
    Array.blit r.Value.rel_tail 0 bigger 0 r.Value.rel_tail_len;
    r.Value.rel_tail <- bigger
  end;
  r.Value.rel_tail.(r.Value.rel_tail_len) <- v;
  r.Value.rel_tail_len <- r.Value.rel_tail_len + 1;
  r.Value.rel_count <- pos + 1;
  while r.Value.rel_tail_len >= ps do
    let page = Array.sub r.Value.rel_tail 0 ps in
    let rest = r.Value.rel_tail_len - ps in
    Array.blit r.Value.rel_tail ps r.Value.rel_tail 0 rest;
    Array.fill r.Value.rel_tail rest (Array.length r.Value.rel_tail - rest) Value.Unit;
    r.Value.rel_tail_len <- rest;
    let oid = Value.Heap.alloc heap (Value.Vector page) in
    r.Value.rel_pages <- Array.append r.Value.rel_pages [| oid |];
    incr pages_sealed
  done;
  r.Value.rel_rows_cache <- None;
  pos

(* Build a relation record from a row array, sealing full pages
   directly (pages are allocated before the caller allocates the
   relation header, keeping allocation order deterministic across
   engines). *)
let of_array heap ?page_size name rows =
  let r = make ?page_size name in
  let ps = r.Value.rel_page_size in
  let n = Array.length rows in
  let npages = n / ps in
  let pages =
    Array.init npages (fun p ->
        let page = Array.sub rows (p * ps) ps in
        incr pages_sealed;
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
    incr row_cache_builds;
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
