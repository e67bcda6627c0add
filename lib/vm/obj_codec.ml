open Tml_core
module Codec = Tml_store.Codec

exception Codec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codec_error s)) fmt

let w_value w (v : Value.t) =
  match v with
  | Value.Unit -> Codec.W.u8 w 0
  | Value.Bool false -> Codec.W.u8 w 1
  | Value.Bool true -> Codec.W.u8 w 2
  | Value.Int i ->
    Codec.W.u8 w 3;
    Codec.W.svarint w i
  | Value.Char c ->
    Codec.W.u8 w 4;
    Codec.W.u8 w (Char.code c)
  | Value.Real r ->
    Codec.W.u8 w 5;
    Codec.W.float64 w r
  | Value.Str s ->
    Codec.W.u8 w 6;
    Codec.W.str w s
  | Value.Oidv o ->
    Codec.W.u8 w 7;
    Codec.W.varint w (Oid.to_int o)
  | Value.Primv name ->
    Codec.W.u8 w 8;
    Codec.W.str w name
  | Value.Closure _ | Value.Mclosure _ | Value.Mblock _ | Value.Halt _ ->
    fail "cannot persist a live %s (functions must be store objects)" (Value.type_name v)

let r_value r : Value.t =
  match Codec.R.u8 r with
  | 0 -> Value.Unit
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 -> Value.Int (Codec.R.svarint r)
  | 4 -> Value.Char (Char.chr (Codec.R.u8 r land 0xff))
  | 5 -> Value.Real (Codec.R.float64 r)
  | 6 -> Value.Str (Codec.R.str r)
  | 7 -> Value.Oidv (Oid.of_int (Codec.R.varint r))
  | 8 -> Value.Primv (Codec.R.str r)
  | t -> fail "bad value tag %d" t

let w_values w vs =
  Codec.W.varint w (Array.length vs);
  Array.iter (w_value w) vs

let r_values r =
  let n = Codec.R.varint r in
  Array.init n (fun _ -> r_value r)

let w_ident w (id : Ident.t) =
  Codec.W.str w id.Ident.name;
  Codec.W.varint w id.Ident.stamp;
  Codec.W.u8 w (if Ident.is_cont id then 1 else 0)

let r_ident r =
  let name = Codec.R.str r in
  let stamp = Codec.R.varint r in
  let sort = if Codec.R.u8 r = 1 then Ident.Cont else Ident.Value in
  Ident.make ~name ~stamp ~sort

let w_obj w (obj : Value.obj) =
  match obj with
  | Value.Array vs ->
    Codec.W.u8 w 0;
    w_values w vs
  | Value.Vector vs ->
    Codec.W.u8 w 1;
    w_values w vs
  | Value.Bytes b ->
    Codec.W.u8 w 2;
    Codec.W.str w (Bytes.to_string b)
  | Value.Tuple vs ->
    Codec.W.u8 w 3;
    w_values w vs
  | Value.Module m ->
    Codec.W.u8 w 4;
    Codec.W.str w m.Value.mod_name;
    Codec.W.varint w (Array.length m.Value.exports);
    Array.iter
      (fun (name, v) ->
        Codec.W.str w name;
        w_value w v)
      m.Value.exports
  | Value.Relation rel ->
    (* REL1: paged relation header. Row pages are separate store
       objects referenced by OID; only the unfilled tail is inline.
       REL2, written when the unfilled tail has sealed chunks, lists
       their OIDs after the pages' and is otherwise REL1.  Encoding is
       canonical (indexes sorted by field) so unchanged headers
       re-encode byte-identically and [Pstore.collect] can skip them. *)
    let w_oids oids =
      Codec.W.varint w (Array.length oids);
      Array.iter (fun oid -> Codec.W.varint w (Oid.to_int oid)) oids
    in
    let chunked = rel.Value.rel_chunks <> [||] in
    Codec.W.u8 w 7;
    Codec.W.raw w (if chunked then "REL2" else "REL1");
    Codec.W.str w rel.Value.rel_name;
    Codec.W.varint w rel.Value.rel_page_size;
    Codec.W.varint w rel.Value.rel_count;
    w_oids rel.Value.rel_pages;
    if chunked then w_oids rel.Value.rel_chunks;
    Codec.W.varint w rel.Value.rel_tail_len;
    for j = 0 to rel.Value.rel_tail_len - 1 do
      w_value w rel.Value.rel_tail.(j)
    done;
    let indexes =
      List.sort (fun (a, _) (b, _) -> compare a b) rel.Value.rel_indexes
    in
    Codec.W.varint w (List.length indexes);
    List.iter
      (fun (field, oid) ->
        Codec.W.varint w field;
        Codec.W.varint w (Oid.to_int oid))
      indexes;
    (match rel.Value.rel_stats with
    | None -> Codec.W.u8 w 0
    | Some oid ->
      Codec.W.u8 w 1;
      Codec.W.varint w (Oid.to_int oid));
    Codec.W.varint w (List.length rel.Value.rel_triggers);
    List.iter (w_value w) rel.Value.rel_triggers
  | Value.Index ix when ix.Value.ix_leaves <> [||] ->
    (* IXR1: a paged index's root, its leaves' low keys and OIDs in key
       order *)
    Codec.W.u8 w 8;
    Codec.W.raw w "IXR1";
    Codec.W.varint w ix.Value.ix_field;
    Codec.W.varint w (Array.length ix.Value.ix_leaves);
    Array.iter
      (fun (low, oid) ->
        w_value w (Value.of_literal low);
        Codec.W.varint w (Oid.to_int oid))
      ix.Value.ix_leaves
  | Value.Index ix ->
    (* IDX1: persistent secondary index, or one leaf of a paged one.
       Canonical bytes: keys in [Value.Keys] order, positions ascending
       — the order the index already holds them in, so nothing is
       sorted here. *)
    Codec.W.u8 w 8;
    Codec.W.raw w "IDX1";
    Codec.W.varint w ix.Value.ix_field;
    Codec.W.varint w ix.Value.ix_distinct;
    Value.Keys.iter
      (fun key positions ->
        w_value w (Value.of_literal key);
        Codec.W.varint w (List.length positions);
        List.iter (Codec.W.varint w) (List.rev positions))
      ix.Value.ix_keys
  | Value.Stats st ->
    Codec.W.u8 w 9;
    Codec.W.raw w "STA1";
    Codec.W.varint w st.Value.st_count;
    Codec.W.svarint w st.Value.st_arity;
    let distinct = List.sort (fun (a, _) (b, _) -> compare a b) st.Value.st_distinct in
    Codec.W.varint w (List.length distinct);
    List.iter
      (fun (field, d) ->
        Codec.W.varint w field;
        Codec.W.varint w d)
      distinct
  | Value.Func fo ->
    Codec.W.u8 w 6;
    Codec.W.str w fo.Value.fo_name;
    Codec.W.str w fo.Value.fo_ptml;
    Codec.W.varint w (List.length fo.Value.fo_bindings);
    List.iter
      (fun (id, v) ->
        w_ident w id;
        w_value w v)
      fo.Value.fo_bindings;
    Codec.W.varint w (List.length fo.Value.fo_attrs);
    List.iter
      (fun (name, value) ->
        Codec.W.str w name;
        Codec.W.svarint w value)
      fo.Value.fo_attrs

let r_obj r : Value.obj * int list (* indexed fields, relations only *) =
  match Codec.R.u8 r with
  | 0 -> Value.Array (r_values r), []
  | 1 -> Value.Vector (r_values r), []
  | 2 -> Value.Bytes (Bytes.of_string (Codec.R.str r)), []
  | 3 -> Value.Tuple (r_values r), []
  | 4 ->
    let mod_name = Codec.R.str r in
    let n = Codec.R.varint r in
    let exports =
      Array.init n (fun _ ->
          let name = Codec.R.str r in
          let v = r_value r in
          name, v)
    in
    Value.Module { Value.mod_name; exports }, []
  | 5 ->
    (* Legacy (pre-REL1) relation: whole row array inline, transient
       indexes identified only by field. Decodes to a tail-only paged
       record; [rebuild_relation_indexes] turns the field list into
       first-class [Index] objects and the header is rewritten as REL1
       on its next commit. *)
    let rel_name = Codec.R.str r in
    let rows = r_values r in
    let n = Codec.R.varint r in
    let fields = List.init n (fun _ -> Codec.R.varint r) in
    let nt = Codec.R.varint r in
    let triggers = List.init nt (fun _ -> r_value r) in
    ( Value.Relation
        {
          Value.rel_name;
          rel_page_size = !Relcore.default_page_size;
          rel_pages = [||];
          rel_chunks = [||];
          rel_tail = rows;
          rel_tail_len = Array.length rows;
          rel_count = Array.length rows;
          rel_indexes = [];
          rel_stats = None;
          rel_triggers = triggers;
          rel_rows_cache = None;
        },
      fields )
  | 6 ->
    let fo_name = Codec.R.str r in
    let fo_ptml = Codec.R.str r in
    let nb = Codec.R.varint r in
    let fo_bindings =
      List.init nb (fun _ ->
          let id = r_ident r in
          let v = r_value r in
          id, v)
    in
    let na = Codec.R.varint r in
    let fo_attrs =
      List.init na (fun _ ->
          let name = Codec.R.str r in
          let value = Codec.R.svarint r in
          name, value)
    in
    let tml =
      try Tml_store.Ptml.decode_value fo_ptml with
      | Tml_store.Ptml.Decode_error msg -> fail "function %s: corrupt PTML: %s" fo_name msg
    in
    ( Value.Func
        {
          Value.fo_name;
          fo_tml = tml;
          fo_ptml;
          fo_bindings;
          fo_tree_impl = None;
          fo_mach_impl = None;
          fo_code = None;
          fo_summary = None;
          fo_attrs;
        },
      [] )
  | 7 ->
    let magic = Codec.R.raw r 4 in
    if magic <> "REL1" && magic <> "REL2" then fail "bad relation magic %S" magic;
    let r_oids () =
      let n = Codec.R.varint r in
      Array.init n (fun _ -> Oid.of_int (Codec.R.varint r))
    in
    let rel_name = Codec.R.str r in
    let rel_page_size = Codec.R.varint r in
    let rel_count = Codec.R.varint r in
    let rel_pages = r_oids () in
    let rel_chunks = if magic = "REL2" then r_oids () else [||] in
    let tail_len = Codec.R.varint r in
    let rel_tail = Array.init tail_len (fun _ -> r_value r) in
    let ni = Codec.R.varint r in
    let rel_indexes =
      List.init ni (fun _ ->
          let field = Codec.R.varint r in
          let oid = Oid.of_int (Codec.R.varint r) in
          field, oid)
    in
    let rel_stats =
      match Codec.R.u8 r with
      | 0 -> None
      | 1 -> Some (Oid.of_int (Codec.R.varint r))
      | t -> fail "bad stats presence tag %d" t
    in
    let nt = Codec.R.varint r in
    let rel_triggers = List.init nt (fun _ -> r_value r) in
    ( Value.Relation
        {
          Value.rel_name;
          rel_page_size;
          rel_pages;
          rel_chunks;
          rel_tail;
          rel_tail_len = tail_len;
          rel_count;
          rel_indexes;
          rel_stats;
          rel_triggers;
          rel_rows_cache = None;
        },
      [] )
  | 8 ->
    let magic = Codec.R.raw r 4 in
    let r_key () =
      match Value.to_literal (r_value r) with
      | Some l -> l
      | None -> fail "non-literal index key in store object"
    in
    let ix = Value.index_create (Codec.R.varint r) in
    (match magic with
    | "IDX1" ->
      let nkeys = Codec.R.varint r in
      for _ = 1 to nkeys do
        let key = r_key () in
        let np = Codec.R.varint r in
        (* stored ascending, held newest first *)
        let positions = List.rev (List.init np (fun _ -> Codec.R.varint r)) in
        ix.Value.ix_keys <- Value.Keys.add key positions ix.Value.ix_keys
      done;
      ix.Value.ix_distinct <- Value.Keys.cardinal ix.Value.ix_keys
    | "IXR1" ->
      let n = Codec.R.varint r in
      ix.Value.ix_leaves <-
        Array.init n (fun _ ->
            let low = r_key () in
            low, Oid.of_int (Codec.R.varint r))
    | _ -> fail "bad index magic %S" magic);
    Value.Index ix, []
  | 9 ->
    let magic = Codec.R.raw r 4 in
    if magic <> "STA1" then fail "bad stats magic %S" magic;
    let st_count = Codec.R.varint r in
    let st_arity = Codec.R.svarint r in
    let nd = Codec.R.varint r in
    let st_distinct =
      List.init nd (fun _ ->
          let field = Codec.R.varint r in
          let d = Codec.R.varint r in
          field, d)
    in
    Value.Stats { Value.st_count; st_arity; st_distinct }, []
  | t -> fail "bad object tag %d" t

let encode_obj obj =
  let w = Codec.W.create ~initial:256 () in
  w_obj w obj;
  Codec.W.contents w

let decode_obj s =
  let r = Codec.R.of_string s in
  try
    let obj, fields = r_obj r in
    if not (Codec.R.at_end r) then fail "trailing bytes after object";
    obj, fields
  with
  | Codec.R.Truncated -> fail "truncated object"
  | Codec.R.Malformed msg -> fail "malformed object: %s" msg

(* Rebuild the indexes of a legacy (pre-REL1) relation already
   installed in [heap]: for each persisted field, build the index by
   scanning the rows in position order (dereferencing row tuples,
   possibly faulting them in) and allocate it as a first-class [Index]
   object. REL1 relations never come through here — their indexes are
   store objects that fault on demand. *)
let rebuild_relation_indexes heap oid fields =
  let key_of v =
    match Value.to_literal v with
    | Some l -> l
    | None -> fail "non-literal index key in store object"
  in
  match Value.Heap.get heap oid with
  | Value.Relation rel ->
    let ixs =
      List.map
        (fun field ->
          let ix = Value.index_create field in
          Relcore.iteri heap rel (fun pos row ->
              match row with
              | Value.Oidv roid -> (
                match Value.Heap.get_opt heap roid with
                | Some (Value.Tuple slots) when field < Array.length slots ->
                  ignore (Value.index_add ix (key_of slots.(field)) pos)
                | _ -> fail "relation row %d is not a valid tuple" pos)
              | _ -> fail "relation row %d is not a reference" pos);
          field, Relcore.index_alloc heap ix)
        (List.sort compare fields)
    in
    rel.Value.rel_indexes <- ixs @ rel.Value.rel_indexes
  | _ -> fail "%s is not a relation" (Oid.to_string oid)
