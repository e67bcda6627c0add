open Tml_core
open Tml_vm

(* Counters surfaced through the [query] metrics source (see Qprims). *)
let inserts = ref 0
let index_builds = ref 0
let index_loads = ref 0
let index_probes = ref 0
let stats_updates = ref 0
let relations_created = ref 0

let get ctx oid =
  match Value.Heap.get_opt ctx.Runtime.heap oid with
  | Some (Value.Relation r) -> r
  | Some _ -> Runtime.fault "%s is not a relation" (Oid.to_string oid)
  | None -> Runtime.fault "dangling relation reference %s" (Oid.to_string oid)

let of_rows ctx ~name row_oids =
  incr relations_created;
  let r = Relcore.of_array ctx.Runtime.heap name row_oids in
  Value.Heap.alloc ctx.Runtime.heap (Value.Relation r)

(* --- statistics ---------------------------------------------------- *)

let get_stats_obj ctx (r : Value.relation) =
  match r.Value.rel_stats with
  | None -> None
  | Some soid -> (
    match Value.Heap.get_opt ctx.Runtime.heap soid with
    | Some (Value.Stats st) -> Some (soid, st)
    | _ -> None)

let stats ctx oid = Option.map snd (get_stats_obj ctx (get ctx oid))

let get_index_obj ctx ixoid =
  if not (Value.Heap.is_loaded ctx.Runtime.heap ixoid) then incr index_loads;
  match Value.Heap.get_opt ctx.Runtime.heap ixoid with
  | Some (Value.Index ix) -> ix
  | _ -> Runtime.fault "%s is not an index" (Oid.to_string ixoid)

(* Refresh the sibling stats object from the relation's current state
   (row count, tuple arity, per-indexed-field distinct counts). Called
   on insert and mkindex; allocates the stats object on first need (the
   caller reports its write to the relation header afterwards either
   way). *)
let refresh_stats ctx (r : Value.relation) ~arity_hint =
  let heap = ctx.Runtime.heap in
  let distinct =
    List.map
      (fun (field, ixoid) -> field, (get_index_obj ctx ixoid).Value.ix_distinct)
      (List.sort compare r.Value.rel_indexes)
  in
  incr stats_updates;
  match get_stats_obj ctx r with
  | Some (soid, st) ->
    st.Value.st_count <- r.Value.rel_count;
    (match arity_hint with
    | Some a when st.Value.st_arity = 0 || st.Value.st_arity = a -> st.Value.st_arity <- a
    | Some _ -> st.Value.st_arity <- -1 (* heterogeneous rows: width unusable *)
    | None -> ());
    st.Value.st_distinct <- distinct;
    Value.Heap.note_write heap soid
  | None ->
    let st =
      {
        Value.st_count = r.Value.rel_count;
        st_arity = Option.value ~default:(-1) arity_hint;
        st_distinct = distinct;
      }
    in
    let soid = Value.Heap.alloc heap (Value.Stats st) in
    r.Value.rel_stats <- Some soid

let create ctx ~name tuples =
  let heap = ctx.Runtime.heap in
  let rows =
    Array.of_list
      (List.map (fun fields -> Value.Oidv (Value.Heap.alloc heap (Value.Tuple fields))) tuples)
  in
  incr relations_created;
  let r = Relcore.of_array heap name rows in
  (* base relations carry a stats object from birth so the cost-based
     planner has cardinalities before the first insert *)
  let arity =
    match tuples with
    | first :: rest ->
      let a = Array.length first in
      if List.for_all (fun t -> Array.length t = a) rest then Some a else Some (-1)
    | [] -> None
  in
  let st =
    {
      Value.st_count = r.Value.rel_count;
      st_arity = (match arity with Some a -> a | None -> 0);
      st_distinct = [];
    }
  in
  incr stats_updates;
  let soid = Value.Heap.alloc heap (Value.Stats st) in
  r.Value.rel_stats <- Some soid;
  Value.Heap.alloc heap (Value.Relation r)

let row_tuple ctx row =
  match row with
  | Value.Oidv oid -> (
    match Value.Heap.get_opt ctx.Runtime.heap oid with
    | Some (Value.Tuple fields) -> fields
    | _ -> Runtime.fault "relation row %s is not a tuple" (Oid.to_string oid))
  | v -> Runtime.fault "relation row is not a reference: %s" (Value.type_name v)

(* --- paged row access ---------------------------------------------- *)

let length ctx oid = Relcore.length (get ctx oid)
let nth ctx oid i = Relcore.nth ctx.Runtime.heap (get ctx oid) i
let iteri ctx oid f = Relcore.iteri ctx.Runtime.heap (get ctx oid) f
let fold ctx oid init f = Relcore.fold ctx.Runtime.heap (get ctx oid) init f
let find ctx oid f = Relcore.find ctx.Runtime.heap (get ctx oid) f
let rows ctx oid = Relcore.snapshot_rows ctx.Runtime.heap (get ctx oid)

(* --- indexes -------------------------------------------------------- *)

type index = Value.index_obj

let index_field (ix : index) = ix.Value.ix_field
let index_distinct (ix : index) = ix.Value.ix_distinct

let index_positions (ix : index) key =
  incr index_probes;
  match Value.Keys.find_opt key ix.Value.ix_keys with
  | None -> []
  | Some positions -> List.rev positions

let find_index ctx oid field =
  let r = get ctx oid in
  match List.assoc_opt field r.Value.rel_indexes with
  | None -> None
  | Some ixoid -> Some (get_index_obj ctx ixoid)

let indexed_fields ctx oid = List.sort compare (List.map fst (get ctx oid).Value.rel_indexes)

let key_of_field ~what v =
  match Value.to_literal v with
  | Some l -> l
  | None -> Runtime.fault "%s: field value %s cannot be an index key" what (Value.type_name v)

let add_index ctx oid field =
  let heap = ctx.Runtime.heap in
  let r = get ctx oid in
  incr index_builds;
  let ix = Value.index_create field in
  Relcore.iteri heap r (fun pos row ->
      let fields = row_tuple ctx row in
      if field < 0 || field >= Array.length fields then
        Runtime.fault "index: field %d out of range" field;
      Value.index_add ix (key_of_field ~what:"index" fields.(field)) pos);
  let ixoid = Value.Heap.alloc heap (Value.Index ix) in
  r.Value.rel_indexes <- (field, ixoid) :: List.remove_assoc field r.Value.rel_indexes;
  refresh_stats ctx r ~arity_hint:None;
  Value.Heap.note_write heap oid

let insert ctx oid fields =
  let heap = ctx.Runtime.heap in
  let r = get ctx oid in
  incr inserts;
  let row = Value.Oidv (Value.Heap.alloc heap (Value.Tuple fields)) in
  let pos = Relcore.append heap r row in
  List.iter
    (fun (field, ixoid) ->
      if field < Array.length fields then begin
        Value.index_add (get_index_obj ctx ixoid) (key_of_field ~what:"insert" fields.(field)) pos;
        Value.Heap.note_write heap ixoid
      end)
    r.Value.rel_indexes;
  refresh_stats ctx r ~arity_hint:(Some (Array.length fields));
  Value.Heap.note_write heap oid

let lookup ctx oid ~field key =
  match find_index ctx oid field with
  | Some ix -> Some (index_positions ix key)
  | None -> None

(* --- triggers ------------------------------------------------------- *)

let triggers ctx oid = List.rev (get ctx oid).Value.rel_triggers

let add_trigger ctx oid fn =
  let r = get ctx oid in
  r.Value.rel_triggers <- fn :: r.Value.rel_triggers;
  Value.Heap.note_write ctx.Runtime.heap oid

(* --- cardinalities for the planner --------------------------------- *)

let card ctx oid = length ctx oid

let distinct ctx oid field =
  match stats ctx oid with
  | Some st -> List.assoc_opt field st.Value.st_distinct
  | None -> None
