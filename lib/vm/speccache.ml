open Tml_core
module Codec = Tml_store.Codec
module Lru = Tml_store.Lru

(* The persistent reflective specialization cache (section 4.1 carried to
   its conclusion): once [Reflect.optimize] has specialized a stored
   function against a set of re-established λ-bindings, the optimized PTML
   is worth keeping — the same (function, bindings) pair recurs every time
   the image is reopened or the function is re-linked unchanged.

   Keying.  An entry is addressed by (callee OID, fingerprint), where the
   fingerprint digests everything the specialization is a function of
   {e about the callee itself}: its stored PTML, the literal forms of its
   bindings, and the optimizer configuration.  What the optimization read
   {e from the rest of the store} (functions it inlined, relations whose
   indexes it consulted, vectors it folded) is captured as a dependency
   list of (OID, content digest) pairs, recorded by chaining the heap's
   access hook during the optimizer run.

   Validation.  A hit is only served after every dependency's current
   content digest matches the recorded one — the verify-on-hit protects
   against store mutation paths that bypass [invalidate] (and makes a
   reopened image safe: the first hit after reopen faults the dependencies
   in and checks them).  Digests are per-kind and deliberately partial:
   they cover exactly what optimization can read (a function's PTML and
   binding literals but not its derived attributes; a relation's name,
   indexed fields and triggers but not its rows — row contents never
   influence specialization, only execution), so row inserts do not
   invalidate plans while an index drop does. *)

type outcome = {
  sc_ptml : string;  (* optimized body, PTML-encoded *)
  sc_attrs : (string * int) list;
  sc_inlined : int;
  sc_rounds : int;
  sc_penalty : int;
  sc_expansions : int;
  sc_size_before : int;
  sc_size_after : int;
  sc_cost_before : int;
  sc_cost_after : int;
  sc_prov : Tml_obs.Provenance.t;
      (* derivation log of the original specialization: a warm hit can
         still explain itself *)
}

type dep = {
  d_oid : int;
  d_digest : string;
}

type entry = {
  en_callee : int;
  en_fp : string;
  en_outcome : outcome;
  en_deps : dep list;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable verify_failures : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let stats_ =
  { hits = 0; misses = 0; stores = 0; verify_failures = 0; invalidations = 0; evictions = 0 }

let stats () = stats_

let reset_stats () =
  stats_.hits <- 0;
  stats_.misses <- 0;
  stats_.stores <- 0;
  stats_.verify_failures <- 0;
  stats_.invalidations <- 0;
  stats_.evictions <- 0

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

let by_key : (int * string, int) Hashtbl.t = Hashtbl.create 64
let by_id : (int, entry) Hashtbl.t = Hashtbl.create 64

(* reverse index: OID (callee or dependency) -> entry ids; bindings for
   dead ids are filtered lazily against [by_id] *)
let rev : (int, int) Hashtbl.t = Hashtbl.create 64
let lru = Lru.create ()
let next_id = ref 0
let capacity = ref 256
let set_capacity n = capacity := n
let length () = Hashtbl.length by_id

let remove_id id =
  match Hashtbl.find_opt by_id id with
  | None -> ()
  | Some e ->
    Hashtbl.remove by_id id;
    Hashtbl.remove by_key (e.en_callee, e.en_fp);
    Lru.remove lru id

let clear () =
  Hashtbl.reset by_key;
  Hashtbl.reset by_id;
  Hashtbl.reset rev;
  let rec drain () =
    match Lru.pop_lru lru with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  stats_.hits <- 0;
  stats_.misses <- 0;
  stats_.stores <- 0;
  stats_.verify_failures <- 0;
  stats_.invalidations <- 0;
  stats_.evictions <- 0

(* ------------------------------------------------------------------ *)
(* Digests                                                              *)
(* ------------------------------------------------------------------ *)

(* A stable token for a runtime value's literal form; live closures have
   none and contribute a fixed marker — they stay free in the specialized
   code, so their contents cannot influence it. *)
let value_token (v : Value.t) =
  match Value.to_literal v with
  | Some (Literal.Real r) -> Printf.sprintf "r%Lx" (Int64.bits_of_float r)
  | Some l -> Literal.to_string l
  | None -> "?"

let binding_tokens buf bindings =
  List.iter
    (fun (id, v) ->
      Buffer.add_string buf (string_of_int id.Ident.stamp);
      Buffer.add_char buf '=';
      Buffer.add_string buf (value_token v);
      Buffer.add_char buf ';')
    bindings

let log2_bucket n =
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 (max 0 n)

(* Content digest of a store object, restricted to what specialization can
   observe (see the header comment). *)
let obj_digest (obj : Value.obj) =
  let buf = Buffer.create 128 in
  (match obj with
  | Value.Func fo ->
    Buffer.add_string buf "F";
    Buffer.add_string buf fo.Value.fo_ptml;
    binding_tokens buf fo.Value.fo_bindings
  | Value.Relation rel ->
    Buffer.add_string buf "R";
    Buffer.add_string buf rel.Value.rel_name;
    List.iter
      (fun field ->
        Buffer.add_char buf '#';
        Buffer.add_string buf (string_of_int field))
      (List.sort compare (List.map fst rel.Value.rel_indexes));
    List.iter
      (fun t ->
        Buffer.add_char buf '!';
        Buffer.add_string buf (value_token t))
      rel.Value.rel_triggers
  | Value.Index ix ->
    (* cost rules read existence + distinct-count magnitude, not
       contents: a log2 bucket keeps warm plans valid across small
       growth while invalidating ones whose enabling statistic moved *)
    Buffer.add_string buf "I#";
    Buffer.add_string buf (string_of_int ix.Value.ix_field);
    Buffer.add_char buf '~';
    Buffer.add_string buf (string_of_int (log2_bucket (Hashtbl.length ix.Value.ix_tbl)))
  | Value.Stats st ->
    Buffer.add_string buf "S~";
    Buffer.add_string buf (string_of_int (log2_bucket st.Value.st_count));
    Buffer.add_char buf '/';
    Buffer.add_string buf (string_of_int st.Value.st_arity);
    List.iter
      (fun (field, d) ->
        Buffer.add_char buf '#';
        Buffer.add_string buf (string_of_int field);
        Buffer.add_char buf '~';
        Buffer.add_string buf (string_of_int (log2_bucket d)))
      (List.sort compare st.Value.st_distinct)
  | Value.Vector slots ->
    Buffer.add_string buf "V";
    Array.iter
      (fun v ->
        Buffer.add_string buf (value_token v);
        Buffer.add_char buf ';')
      slots
  | Value.Tuple slots ->
    Buffer.add_string buf "T";
    Array.iter
      (fun v ->
        Buffer.add_string buf (value_token v);
        Buffer.add_char buf ';')
      slots
  | Value.Array slots ->
    (* mutable, and no rewrite rule reads array contents: length only *)
    Buffer.add_string buf "A";
    Buffer.add_string buf (string_of_int (Array.length slots))
  | Value.Bytes b ->
    Buffer.add_string buf "B";
    Buffer.add_string buf (string_of_int (Bytes.length b))
  | Value.Module m ->
    Buffer.add_string buf "M";
    Buffer.add_string buf m.Value.mod_name;
    Array.iter
      (fun (name, v) ->
        Buffer.add_string buf name;
        Buffer.add_char buf '=';
        Buffer.add_string buf (value_token v);
        Buffer.add_char buf ';')
      m.Value.exports);
  Digest.string (Buffer.contents buf)

let current_digest heap oid =
  (* [get_opt], not [peek]: after a cold reopen the dependency may not be
     materialized yet — faulting it in is how the first hit verifies *)
  match Value.Heap.get_opt heap (Oid.of_int oid) with
  | Some obj -> obj_digest obj
  | None -> "<dangling>"

let fingerprint ~ptml ~bindings ~config =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ptml;
  Buffer.add_char buf '\000';
  binding_tokens buf bindings;
  Buffer.add_char buf '\000';
  Buffer.add_string buf config;
  Digest.string (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Lookup / store / invalidate                                          *)
(* ------------------------------------------------------------------ *)

let find heap ~callee ~fp =
  let key = Oid.to_int callee, fp in
  let miss () =
    stats_.misses <- stats_.misses + 1;
    Tml_obs.Events.speccache `Miss ~callee:(Oid.to_int callee);
    None
  in
  match Hashtbl.find_opt by_key key with
  | None -> miss ()
  | Some id -> (
    match Hashtbl.find_opt by_id id with
    | None ->
      Hashtbl.remove by_key key;
      miss ()
    | Some e ->
      if List.for_all (fun d -> String.equal (current_digest heap d.d_oid) d.d_digest) e.en_deps
      then begin
        stats_.hits <- stats_.hits + 1;
        Lru.touch lru id;
        Tml_obs.Events.speccache `Hit ~callee:(Oid.to_int callee);
        Some e.en_outcome
      end
      else begin
        stats_.verify_failures <- stats_.verify_failures + 1;
        Tml_obs.Events.speccache `Verify_failure ~callee:(Oid.to_int callee);
        remove_id id;
        miss ()
      end)

let store heap ~callee ~fp ~deps outcome =
  let callee = Oid.to_int callee in
  (* dependency snapshot: digest each read OID now, while the heap is in
     the state the optimization observed.  The callee itself is excluded —
     its content is the fingerprint's business, and [optimize_inplace]
     rewrites it right after storing. *)
  let dep_oids =
    List.sort_uniq compare (List.map Oid.to_int deps)
    |> List.filter (fun o -> o <> callee)
  in
  let en_deps = List.map (fun o -> { d_oid = o; d_digest = current_digest heap o }) dep_oids in
  let key = callee, fp in
  (match Hashtbl.find_opt by_key key with
  | Some old -> remove_id old
  | None -> ());
  incr next_id;
  let id = !next_id in
  let e = { en_callee = callee; en_fp = fp; en_outcome = outcome; en_deps } in
  Hashtbl.replace by_id id e;
  Hashtbl.replace by_key key id;
  Lru.touch lru id;
  Hashtbl.add rev callee id;
  List.iter (fun d -> Hashtbl.add rev d.d_oid id) en_deps;
  stats_.stores <- stats_.stores + 1;
  Tml_obs.Events.speccache `Store ~callee;
  while Hashtbl.length by_id > !capacity do
    match Lru.pop_lru lru with
    | Some victim ->
      stats_.evictions <- stats_.evictions + 1;
      remove_id victim
    | None -> assert false (* by_id nonempty implies lru nonempty *)
  done

(* Invalidation subscribers: the tiered-execution policy (and any other
   cache keyed by function identity) listens here so every plan-relevant
   store mutation that invalidates specializations also deoptimizes
   compiled code.  Subscribers run on every [invalidate], even when no
   cache entry matched — the *notification* is the contract, not the
   entry count. *)
let invalidate_subscribers : (Oid.t -> unit) list ref = ref []
let subscribe_invalidate f = invalidate_subscribers := f :: !invalidate_subscribers

let invalidate oid =
  List.iter (fun f -> f oid) !invalidate_subscribers;
  let o = Oid.to_int oid in
  let ids = Hashtbl.find_all rev o in
  (* remove every binding for [o], then drop the (still live) entries *)
  let rec purge () =
    if Hashtbl.mem rev o then begin
      Hashtbl.remove rev o;
      purge ()
    end
  in
  purge ();
  List.iter
    (fun id ->
      if Hashtbl.mem by_id id then begin
        stats_.invalidations <- stats_.invalidations + 1;
        Tml_obs.Events.speccache `Invalidate ~callee:o;
        remove_id id
      end)
    ids

let forget ~lo ~hi =
  let in_range o = o >= lo && o < hi in
  Hashtbl.fold
    (fun id e acc ->
      if in_range e.en_callee || List.exists (fun d -> in_range d.d_oid) e.en_deps then
        id :: acc
      else acc)
    by_id []
  |> List.iter remove_id;
  Hashtbl.filter_map_inplace (fun o id -> if in_range o then None else Some id) rev

(* ------------------------------------------------------------------ *)
(* Serialization (persisted through the session manifest)               *)
(* ------------------------------------------------------------------ *)

(* SPC2: SPC1 plus the embedded provenance log per entry.  Old manifests
   decode as Corrupt and the tolerant restore path simply starts cold. *)
let magic = "SPC2"

let encode () =
  let w = Codec.W.create ~initial:4096 () in
  Codec.W.raw w magic;
  Codec.W.varint w (Hashtbl.length by_id);
  Hashtbl.iter
    (fun _ e ->
      Codec.W.varint w e.en_callee;
      Codec.W.str w e.en_fp;
      let o = e.en_outcome in
      Codec.W.str w o.sc_ptml;
      Codec.W.varint w (List.length o.sc_attrs);
      List.iter
        (fun (name, v) ->
          Codec.W.str w name;
          Codec.W.svarint w v)
        o.sc_attrs;
      Codec.W.varint w o.sc_inlined;
      Codec.W.varint w o.sc_rounds;
      Codec.W.varint w o.sc_penalty;
      Codec.W.varint w o.sc_expansions;
      Codec.W.varint w o.sc_size_before;
      Codec.W.varint w o.sc_size_after;
      Codec.W.varint w o.sc_cost_before;
      Codec.W.varint w o.sc_cost_after;
      Tml_store.Prov_codec.encode_into w o.sc_prov;
      Codec.W.varint w (List.length e.en_deps);
      List.iter
        (fun d ->
          Codec.W.varint w d.d_oid;
          Codec.W.str w d.d_digest)
        e.en_deps)
    by_id;
  Codec.W.contents w

exception Corrupt of string

let decode s =
  let r = Codec.R.of_string s in
  (try
     if not (String.equal (Codec.R.raw r 4) magic) then
       raise (Corrupt "speccache: bad magic")
   with Codec.R.Truncated -> raise (Corrupt "speccache: truncated header"));
  let fresh_entries =
    try
      let n = Codec.R.varint r in
      List.init n (fun _ ->
          let en_callee = Codec.R.varint r in
          let en_fp = Codec.R.str r in
          let sc_ptml = Codec.R.str r in
          let nattrs = Codec.R.varint r in
          let sc_attrs =
            List.init nattrs (fun _ ->
                let name = Codec.R.str r in
                let v = Codec.R.svarint r in
                name, v)
          in
          let sc_inlined = Codec.R.varint r in
          let sc_rounds = Codec.R.varint r in
          let sc_penalty = Codec.R.varint r in
          let sc_expansions = Codec.R.varint r in
          let sc_size_before = Codec.R.varint r in
          let sc_size_after = Codec.R.varint r in
          let sc_cost_before = Codec.R.varint r in
          let sc_cost_after = Codec.R.varint r in
          let sc_prov =
            try Tml_store.Prov_codec.decode_from r
            with Tml_store.Prov_codec.Corrupt msg -> raise (Corrupt ("speccache: " ^ msg))
          in
          let ndeps = Codec.R.varint r in
          let en_deps =
            List.init ndeps (fun _ ->
                let d_oid = Codec.R.varint r in
                let d_digest = Codec.R.str r in
                { d_oid; d_digest })
          in
          {
            en_callee;
            en_fp;
            en_outcome =
              {
                sc_ptml;
                sc_attrs;
                sc_inlined;
                sc_rounds;
                sc_penalty;
                sc_expansions;
                sc_size_before;
                sc_size_after;
                sc_cost_before;
                sc_cost_after;
                sc_prov;
              };
            en_deps;
          })
    with
    | Codec.R.Truncated -> raise (Corrupt "speccache: truncated")
    | Codec.R.Malformed msg -> raise (Corrupt ("speccache: " ^ msg))
  in
  clear ();
  List.iter
    (fun e ->
      incr next_id;
      let id = !next_id in
      Hashtbl.replace by_id id e;
      Hashtbl.replace by_key (e.en_callee, e.en_fp) id;
      Lru.touch lru id;
      Hashtbl.add rev e.en_callee id;
      List.iter (fun d -> Hashtbl.add rev d.d_oid id) e.en_deps)
    fresh_entries

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let register_metrics () =
  Tml_obs.Metrics.register_source ~name:"speccache"
    ~snapshot:(fun () ->
      Tml_obs.Metrics.
        [
          ("hits", I stats_.hits);
          ("misses", I stats_.misses);
          ("stores", I stats_.stores);
          ("verify_failures", I stats_.verify_failures);
          ("invalidations", I stats_.invalidations);
          ("evictions", I stats_.evictions);
          ("entries", I (Hashtbl.length by_id));
        ])
    ~reset:reset_stats
