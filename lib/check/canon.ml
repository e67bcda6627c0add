open Tml_core
open Tml_vm

let render_value (v : Value.t) =
  match v with
  | Value.Unit -> "nil"
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Char c -> Printf.sprintf "'%s'" (Char.escaped c)
  | Value.Real r ->
    (* bit-exact: two runs agree on a real only if they computed the same
       IEEE double *)
    Printf.sprintf "real:%Lx" (Int64.bits_of_float r)
  | Value.Str s -> Printf.sprintf "%S" s
  | Value.Oidv o -> Printf.sprintf "<oid %d>" (Oid.to_int o)
  | Value.Primv name -> Printf.sprintf "<prim %s>" name
  | Value.Halt ok -> if ok then "<halt-ok>" else "<halt-err>"
  | Value.Closure _ | Value.Mclosure _ | Value.Mblock _ -> "<closure>"

let render_slots buf render slots =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (render v))
    slots;
  Buffer.add_char buf ']'

(* A paged index's root renders its keys and positions read through
   [heap]; without a heap ([render_obj_full], one object as the codec
   stores it) it renders its directory *)
let render_obj_with ?heap render_ref (obj : Value.obj) =
  let buf = Buffer.create 64 in
  (match obj with
  | Value.Array slots ->
    Buffer.add_string buf "array";
    render_slots buf render_ref slots
  | Value.Vector slots ->
    Buffer.add_string buf "vector";
    render_slots buf render_ref slots
  | Value.Tuple slots ->
    Buffer.add_string buf "tuple";
    render_slots buf render_ref slots
  | Value.Bytes b -> Buffer.add_string buf (Printf.sprintf "bytes%S" (Bytes.to_string b))
  | Value.Module m ->
    Buffer.add_string buf (Printf.sprintf "module %s" m.Value.mod_name);
    Buffer.add_char buf '{';
    Array.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf name;
        Buffer.add_char buf '=';
        Buffer.add_string buf (render_ref v))
      m.Value.exports;
    Buffer.add_char buf '}'
  | Value.Relation rel ->
    Buffer.add_string buf
      (Printf.sprintf "relation %s n=%d pages" rel.Value.rel_name rel.Value.rel_count);
    render_slots buf render_ref (Array.map (fun o -> Value.Oidv o) rel.Value.rel_pages);
    if rel.Value.rel_chunks <> [||] then begin
      Buffer.add_string buf " chunks";
      render_slots buf render_ref (Array.map (fun o -> Value.Oidv o) rel.Value.rel_chunks)
    end;
    Buffer.add_string buf " tail";
    render_slots buf render_ref (Array.sub rel.Value.rel_tail 0 rel.Value.rel_tail_len);
    let ixs =
      List.sort (fun (f1, _) (f2, _) -> compare f1 f2) rel.Value.rel_indexes
    in
    Buffer.add_string buf " indexes[";
    List.iteri
      (fun i (f, o) ->
        if i > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (Printf.sprintf "%d=%s" f (render_ref (Value.Oidv o))))
      ixs;
    Buffer.add_string buf "] stats ";
    (match rel.Value.rel_stats with
    | Some o -> Buffer.add_string buf (render_ref (Value.Oidv o))
    | None -> Buffer.add_string buf "none");
    Buffer.add_string buf " triggers[";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (render_ref v))
      rel.Value.rel_triggers;
    Buffer.add_char buf ']'
  | Value.Index ix when ix.Value.ix_leaves <> [||] && heap = None ->
    Buffer.add_string buf (Printf.sprintf "index f=%d leaves" ix.Value.ix_field);
    render_slots buf Fun.id
      (Array.map
         (fun (low, o) -> render_value (Value.of_literal low) ^ "->" ^ render_ref (Value.Oidv o))
         ix.Value.ix_leaves)
  | Value.Index ix ->
    (* canonical: keys in index order, positions oldest-first (the index
       keeps them newest-first), whichever leaves hold them *)
    Buffer.add_string buf (Printf.sprintf "index f=%d keys{" ix.Value.ix_field);
    let first = ref true in
    let iter f =
      match heap with
      | Some heap -> Relcore.index_iter heap ix f
      | None -> Value.Keys.iter f ix.Value.ix_keys
    in
    iter (fun k ps ->
        if not !first then Buffer.add_char buf ' ';
        first := false;
        Buffer.add_string buf (render_value (Value.of_literal k));
        Buffer.add_string buf "->[";
        Buffer.add_string buf (String.concat " " (List.rev_map string_of_int ps));
        Buffer.add_char buf ']');
    Buffer.add_char buf '}'
  | Value.Stats st ->
    Buffer.add_string buf
      (Printf.sprintf "stats count=%d arity=%d distinct[" st.Value.st_count
         st.Value.st_arity);
    List.iteri
      (fun i (f, d) ->
        if i > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (Printf.sprintf "%d=%d" f d))
      (List.sort compare st.Value.st_distinct);
    Buffer.add_char buf ']'
  | Value.Func fo -> Buffer.add_string buf (Printf.sprintf "func %s" fo.Value.fo_name));
  Buffer.contents buf

let render_func_full (fo : Value.func_obj) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "func %s ptml:%s" fo.Value.fo_name
       (Digest.to_hex (Digest.string fo.Value.fo_ptml)));
  Buffer.add_string buf " bindings[";
  List.iteri
    (fun i (id, v) ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Ident.to_string id);
      Buffer.add_char buf '=';
      Buffer.add_string buf (render_value v))
    fo.Value.fo_bindings;
  Buffer.add_string buf "] attrs[";
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%s=%d" name n))
    fo.Value.fo_attrs;
  Buffer.add_char buf ']';
  Buffer.contents buf

let render_obj_full obj =
  match obj with
  | Value.Func fo -> render_func_full fo
  | obj -> render_obj_with render_value obj

(* OIDs are renumbered by allocation order over the {e included} objects, so
   that an engine which allocates auxiliary function objects (the reflective
   optimizer) still produces the same dump for the same program effects. *)
let dump_heap_gen ~with_funcs heap =
  (* a paged index's leaves render inside its root, not on their own *)
  let leaves = Hashtbl.create 16 in
  Value.Heap.iter
    (fun _ obj ->
      match obj with
      | Value.Index ix -> Array.iter (fun (_, o) -> Hashtbl.replace leaves o ()) ix.Value.ix_leaves
      | _ -> ())
    heap;
  let included i =
    let oid = Oid.of_int i in
    match Value.Heap.peek heap oid with
    | None -> None
    | Some (Value.Func _) when not with_funcs -> None
    | Some (Value.Index _) when Hashtbl.mem leaves oid -> None
    | Some obj -> Some (oid, obj)
  in
  let local = Hashtbl.create 16 in
  let objs = ref [] in
  for i = 0 to Value.Heap.size heap - 1 do
    match included i with
    | None -> ()
    | Some (oid, obj) ->
      Hashtbl.add local oid (Hashtbl.length local);
      objs := (oid, obj) :: !objs
  done;
  let render_ref v =
    match v with
    | Value.Oidv o -> (
      match Hashtbl.find_opt local o with
      | Some n -> Printf.sprintf "<r%d>" n
      | None -> "<func-ref>")
    | _ -> render_value v
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (oid, obj) ->
      let n = Hashtbl.find local oid in
      match obj with
      | Value.Func fo ->
        Buffer.add_string buf (Printf.sprintf "r%d: %s\n" n (render_func_full fo))
      | obj ->
        Buffer.add_string buf (Printf.sprintf "r%d: %s\n" n (render_obj_with ~heap render_ref obj)))
    (List.rev !objs);
  Buffer.contents buf

let dump_heap heap = dump_heap_gen ~with_funcs:false heap
let dump_heap_all heap = dump_heap_gen ~with_funcs:true heap

(* Breadth-first walk from the roots, assigning stable local numbers so the
   dump is insensitive to absolute OID drift between two runs. *)
let dump_reachable (ctx : Runtime.ctx) roots =
  let local = Hashtbl.create 16 in
  let order = ref [] in
  let queue = Queue.create () in
  let visit v =
    match v with
    | Value.Oidv o ->
      if not (Hashtbl.mem local o) then begin
        Hashtbl.add local o (Hashtbl.length local);
        order := o :: !order;
        Queue.add o queue
      end
    | _ -> ()
  in
  List.iter visit roots;
  while not (Queue.is_empty queue) do
    let o = Queue.take queue in
    match Value.Heap.get_opt ctx.Runtime.heap o with
    | None -> ()
    | Some obj -> (
      match obj with
      | Value.Array slots | Value.Vector slots | Value.Tuple slots ->
        Array.iter visit slots
      | Value.Bytes _ -> ()
      | Value.Module m -> Array.iter (fun (_, v) -> visit v) m.Value.exports
      | Value.Relation rel ->
        Array.iter (fun o -> visit (Value.Oidv o)) rel.Value.rel_pages;
        Array.iter (fun o -> visit (Value.Oidv o)) rel.Value.rel_chunks;
        Array.iter visit (Array.sub rel.Value.rel_tail 0 rel.Value.rel_tail_len);
        List.iter (fun (_, o) -> visit (Value.Oidv o)) rel.Value.rel_indexes;
        (match rel.Value.rel_stats with
        | Some o -> visit (Value.Oidv o)
        | None -> ());
        List.iter visit rel.Value.rel_triggers
      | Value.Index _ | Value.Stats _ -> ()
      | Value.Func _ -> ())
  done;
  let render_ref v =
    match v with
    | Value.Oidv o -> (
      match Hashtbl.find_opt local o with
      | Some n -> Printf.sprintf "<r%d>" n
      | None -> "<unreachable>")
    | _ -> render_value v
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun o ->
      let n = Hashtbl.find local o in
      match Value.Heap.get_opt ctx.Runtime.heap o with
      | None -> Buffer.add_string buf (Printf.sprintf "r%d: <dangling>\n" n)
      | Some (Value.Func fo) ->
        Buffer.add_string buf (Printf.sprintf "r%d: func %s\n" n fo.Value.fo_name)
      | Some obj ->
        Buffer.add_string buf
          (Printf.sprintf "r%d: %s\n" n (render_obj_with ~heap:ctx.Runtime.heap render_ref obj)))
    (List.rev !order);
  Buffer.contents buf
