open Tml_core
open Tml_vm

(* ------------------------------------------------------------------ *)
(* Optimizer descriptors                                                *)
(* ------------------------------------------------------------------ *)

let observer = { Prim.effects = Prim.Observer; commutative = false; can_fold = false }
let mutator = { Prim.effects = Prim.Mutator; commutative = false; can_fold = false }

let descriptors () =
  let p = Prim.make in
  [
    p ~name:"select" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:50 ();
    p ~name:"project" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:40 ();
    p ~name:"join" ~value_arity:(Some 3) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:100 ();
    p ~name:"exists" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:30 ();
    p ~name:"empty" ~value_arity:(Some 1) ~cont_arity:(Some 1) ~attrs:observer ~base_cost:2 ();
    p ~name:"count" ~value_arity:(Some 1) ~cont_arity:(Some 1) ~attrs:observer ~base_cost:2 ();
    p ~name:"sum" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:40 ();
    p ~name:"foreach" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:30 ();
    p ~name:"tuple" ~value_arity:None ~cont_arity:(Some 1) ~attrs:mutator ~base_cost:2 ();
    p ~name:"relation" ~value_arity:None ~cont_arity:(Some 1) ~attrs:mutator ~base_cost:3 ();
    p ~name:"insert" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:mutator ~base_cost:5 ();
    p ~name:"ontrigger" ~value_arity:(Some 2) ~cont_arity:(Some 1) ~attrs:mutator ~base_cost:5
      ();
    p ~name:"mkindex" ~value_arity:(Some 2) ~cont_arity:(Some 1) ~attrs:mutator ~base_cost:20 ();
    p ~name:"indexselect" ~value_arity:(Some 3) ~cont_arity:(Some 2) ~attrs:observer
      ~base_cost:8 ();
    p ~name:"idxjoin" ~value_arity:(Some 4) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:12
      ();
    p ~name:"union" ~value_arity:(Some 2) ~cont_arity:(Some 1) ~attrs:observer ~base_cost:10 ();
    p ~name:"inter" ~value_arity:(Some 2) ~cont_arity:(Some 1) ~attrs:observer ~base_cost:30 ();
    p ~name:"diff" ~value_arity:(Some 2) ~cont_arity:(Some 1) ~attrs:observer ~base_cost:30 ();
    p ~name:"distinct" ~value_arity:(Some 1) ~cont_arity:(Some 1) ~attrs:observer ~base_cost:20
      ();
    p ~name:"minagg" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:40 ();
    p ~name:"maxagg" ~value_arity:(Some 2) ~cont_arity:(Some 2) ~attrs:observer ~base_cost:40 ();
  ]

(* ------------------------------------------------------------------ *)
(* Runtime implementations                                              *)
(* ------------------------------------------------------------------ *)

(* All row traversal goes through [Rel.iteri]/[Rel.nth]: pages fault in
   on demand and the full row array is never materialized. *)

let ret k v = Runtime.Invoke (k, [ v ])

(* Apply a user predicate/function to a row via the engine's re-entrant
   call; charge a per-row cost so that query evaluation shows up in the
   abstract instruction counts. *)
let call1 ctx f x =
  Runtime.charge ctx 2;
  ctx.Runtime.subcall f [ x ]

let as_reloid ctx ~what v =
  let oid = Runtime.as_oid ~what v in
  ignore (Rel.get ctx oid);
  oid

let rel_name ctx oid = (Rel.get ctx oid).Value.rel_name

exception Bail of Value.t

let bool_of ~what = function
  | Value.Bool b -> b
  | v -> Runtime.fault "%s: predicate returned %s, expected bool" what (Value.type_name v)

let select_impl ctx values conts =
  match values, conts with
  | [ pred; rel ], [ ce; cc ] -> (
    let oid = as_reloid ctx ~what:"select" rel in
    try
      let out = ref [] in
      Rel.iteri ctx oid (fun _ row ->
          match call1 ctx pred row with
          | Ok v -> if bool_of ~what:"select" v then out := row :: !out
          | Error e -> raise (Bail e));
      let kept = Array.of_list (List.rev !out) in
      (* materializing the result relation costs per output row *)
      Runtime.charge ctx (1 + (2 * Array.length kept));
      ret cc (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid ^ "'") kept))
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "select: bad arguments"

let project_impl ctx values conts =
  match values, conts with
  | [ f; rel ], [ ce; cc ] -> (
    let oid = as_reloid ctx ~what:"project" rel in
    try
      let out = ref [] in
      Rel.iteri ctx oid (fun _ row ->
          match call1 ctx f row with
          | Ok (Value.Oidv _ as t) -> out := t :: !out
          | Ok v -> Runtime.fault "project: target returned %s" (Value.type_name v)
          | Error e -> raise (Bail e));
      let rows = Array.of_list (List.rev !out) in
      Runtime.charge ctx (1 + (2 * Array.length rows));
      ret cc (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid ^ "[π]") rows))
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "project: bad arguments"

let join_impl ctx values conts =
  match values, conts with
  | [ pred; rel1; rel2 ], [ ce; cc ] -> (
    let oid1 = as_reloid ctx ~what:"join" rel1 and oid2 = as_reloid ctx ~what:"join" rel2 in
    try
      let out = ref [] in
      Rel.iteri ctx oid1 (fun _ row1 ->
          Rel.iteri ctx oid2 (fun _ row2 ->
              Runtime.charge ctx 2;
              match ctx.Runtime.subcall pred [ row1; row2 ] with
              | Ok v ->
                if bool_of ~what:"join" v then begin
                  let fields =
                    Array.append (Rel.row_tuple ctx row1) (Rel.row_tuple ctx row2)
                  in
                  let t = Value.Heap.alloc ctx.Runtime.heap (Value.Tuple fields) in
                  out := Value.Oidv t :: !out
                end
              | Error e -> raise (Bail e)));
      let rows = Array.of_list (List.rev !out) in
      Runtime.charge ctx (1 + (2 * Array.length rows));
      ret cc
        (Value.Oidv
           (Rel.of_rows ctx ~name:(rel_name ctx oid1 ^ "⋈" ^ rel_name ctx oid2) rows))
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "join: bad arguments"

(* Index-accelerated equi-join: for each row of [rel1], probe [rel2]'s
   persistent index on [f2] with the value of [f1]. Probed positions
   come back ascending, reproducing the inner-loop order of the
   nested-loop [join] exactly — the [q.index-join] rewrite is therefore
   result-identical, row order included. Degrades to a nested scan when
   the index is missing at runtime. *)
let idxjoin_impl ctx values conts =
  match values, conts with
  | [ rel1; rel2; f1; f2 ], [ _ce; cc ] ->
    let oid1 = as_reloid ctx ~what:"idxjoin" rel1
    and oid2 = as_reloid ctx ~what:"idxjoin" rel2 in
    let f1 = Runtime.as_int ~what:"idxjoin" f1 and f2 = Runtime.as_int ~what:"idxjoin" f2 in
    let out = ref [] in
    let emit fields1 row2 =
      let fields = Array.append fields1 (Rel.row_tuple ctx row2) in
      let t = Value.Heap.alloc ctx.Runtime.heap (Value.Tuple fields) in
      out := Value.Oidv t :: !out
    in
    (match Rel.find_index ctx oid2 f2 with
    | Some ix when Rel.index_field ix = f2 ->
      Rel.iteri ctx oid1 (fun _ row1 ->
          Runtime.charge ctx 2;
          let fields1 = Rel.row_tuple ctx row1 in
          if f1 >= 0 && f1 < Array.length fields1 then
            match Value.to_literal fields1.(f1) with
            | Some key ->
              List.iter
                (fun pos ->
                  Runtime.charge ctx 3;
                  emit fields1 (Rel.nth ctx oid2 pos))
                (Rel.index_positions ctx ix key)
            | None -> ())
    | _ ->
      (* no index at runtime: degrade to the nested scan, with the same
         key equality the index uses (structural on literal forms) *)
      Rel.iteri ctx oid1 (fun _ row1 ->
          let fields1 = Rel.row_tuple ctx row1 in
          let key1 =
            if f1 >= 0 && f1 < Array.length fields1 then Value.to_literal fields1.(f1)
            else None
          in
          Rel.iteri ctx oid2 (fun _ row2 ->
              Runtime.charge ctx 2;
              match key1 with
              | None -> ()
              | Some k1 -> (
                let fields2 = Rel.row_tuple ctx row2 in
                if f2 >= 0 && f2 < Array.length fields2 then
                  match Value.to_literal fields2.(f2) with
                  | Some k2 when k1 = k2 -> emit fields1 row2
                  | _ -> ()))));
    let rows = Array.of_list (List.rev !out) in
    Runtime.charge ctx (1 + (2 * Array.length rows));
    ret cc
      (Value.Oidv
         (Rel.of_rows ctx ~name:(rel_name ctx oid1 ^ "⋈ix" ^ rel_name ctx oid2) rows))
  | _ -> Runtime.fault "idxjoin: bad arguments"

exception Found_row

let exists_impl ctx values conts =
  match values, conts with
  | [ pred; rel ], [ ce; cc ] -> (
    let oid = as_reloid ctx ~what:"exists" rel in
    try
      let found =
        try
          Rel.iteri ctx oid (fun _ row ->
              match call1 ctx pred row with
              | Ok v -> if bool_of ~what:"exists" v then raise Found_row
              | Error e -> raise (Bail e));
          false
        with Found_row -> true
      in
      ret cc (Value.Bool found)
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "exists: bad arguments"

let empty_impl ctx values conts =
  match values, conts with
  | [ rel ], [ k ] -> ret k (Value.Bool (Rel.length ctx (as_reloid ctx ~what:"empty" rel) = 0))
  | _ -> Runtime.fault "empty: bad arguments"

let count_impl ctx values conts =
  match values, conts with
  | [ rel ], [ k ] -> ret k (Value.Int (Rel.length ctx (as_reloid ctx ~what:"count" rel)))
  | _ -> Runtime.fault "count: bad arguments"

let sum_impl ctx values conts =
  match values, conts with
  | [ f; rel ], [ ce; cc ] -> (
    let oid = as_reloid ctx ~what:"sum" rel in
    try
      let total = ref 0 in
      Rel.iteri ctx oid (fun _ row ->
          match call1 ctx f row with
          | Ok (Value.Int i) -> total := !total + i
          | Ok v -> Runtime.fault "sum: function returned %s" (Value.type_name v)
          | Error e -> raise (Bail e));
      ret cc (Value.Int !total)
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "sum: bad arguments"

let foreach_impl ctx values conts =
  match values, conts with
  | [ body; rel ], [ ce; cc ] -> (
    let oid = as_reloid ctx ~what:"foreach" rel in
    try
      Rel.iteri ctx oid (fun _ row ->
          match call1 ctx body row with
          | Ok _ -> ()
          | Error e -> raise (Bail e));
      ret cc Value.Unit
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "foreach: bad arguments"

let tuple_impl ctx values conts =
  match conts with
  | [ k ] ->
    ret k (Value.Oidv (Value.Heap.alloc ctx.Runtime.heap (Value.Tuple (Array.of_list values))))
  | _ -> Runtime.fault "tuple: bad arguments"

let relation_impl ctx values conts =
  match conts with
  | [ k ] ->
    List.iter
      (fun v ->
        match v with
        | Value.Oidv _ -> ()
        | _ -> Runtime.fault "relation: rows must be tuple references")
      values;
    ret k (Value.Oidv (Rel.of_rows ctx ~name:"rel" (Array.of_list values)))
  | _ -> Runtime.fault "relation: bad arguments"

let insert_impl ctx values conts =
  match values, conts with
  | [ rel; row ], [ ce; cc ] -> (
    let oid = Runtime.as_oid ~what:"insert" rel in
    let fields = Rel.row_tuple ctx row in
    Rel.insert ctx oid fields;
    (* fire the stored triggers with the inserted tuple; a raising trigger
       propagates through the exception continuation (the row stays
       inserted: triggers run after the update, as documented) *)
    try
      List.iter
        (fun trigger ->
          Runtime.charge ctx 2;
          match ctx.Runtime.subcall trigger [ row ] with
          | Ok _ -> ()
          | Error e -> raise (Bail e))
        (Rel.triggers ctx oid);
      ret cc Value.Unit
    with
    | Bail e -> ret ce e)
  | _ -> Runtime.fault "insert: bad arguments"

let ontrigger_impl ctx values conts =
  match values, conts with
  | [ rel; fn ], [ k ] ->
    let oid = as_reloid ctx ~what:"ontrigger" rel in
    (match fn with
    | Value.Oidv _ | Value.Closure _ | Value.Mclosure _ | Value.Primv _ -> ()
    | v -> Runtime.fault "ontrigger: %s is not callable" (Value.type_name v));
    Rel.add_trigger ctx oid fn;
    ret k Value.Unit
  | _ -> Runtime.fault "ontrigger: bad arguments"

let mkindex_impl ctx values conts =
  match values, conts with
  | [ rel; field ], [ k ] ->
    Rel.add_index ctx (Runtime.as_oid ~what:"mkindex" rel) (Runtime.as_int ~what:"mkindex" field);
    ret k Value.Unit
  | _ -> Runtime.fault "mkindex: bad arguments"

let indexselect_impl ctx values conts =
  match values, conts with
  | [ rel; field; key ], [ _ce; cc ] -> (
    let oid = as_reloid ctx ~what:"indexselect" rel in
    let field = Runtime.as_int ~what:"indexselect" field in
    (* the ["=="] of the predicate this probe replaced *)
    let matches row =
      let fields = Rel.row_tuple ctx row in
      field >= 0 && field < Array.length fields && Value.identical fields.(field) key
    in
    let probe =
      match Value.to_literal key with
      | Some l -> Rel.lookup ctx oid ~field l
      | None -> None
    in
    match probe with
    | Some positions ->
      (* positions come back ascending: only their pages fault in *)
      Runtime.charge ctx (1 + (3 * List.length positions));
      let rows = List.map (fun pos -> Rel.nth ctx oid pos) positions in
      (* the index compares literal forms structurally, which conflates
         reals that are not bit-identical (0.0 and -0.0, NaN payloads):
         re-check those rows against the key *)
      let rows =
        match key with
        | Value.Real _ -> List.filter matches rows
        | _ -> rows
      in
      let rows = Array.of_list rows in
      ret cc (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid ^ "[ix]") rows))
    | None ->
      (* no index at run time, or a key with no literal form (a closure
         bound to a runtime key): degrade to a scan *)
      Runtime.charge ctx (Rel.length ctx oid);
      let out = ref [] in
      Rel.iteri ctx oid (fun _ row -> if matches row then out := row :: !out);
      let kept = Array.of_list (List.rev !out) in
      ret cc (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid ^ "[scan]") kept)))
  | _ -> Runtime.fault "indexselect: bad arguments"

(* Multiset semantics with content comparison: two rows are the same when
   their fields are pairwise identical (in the ["=="] sense). *)
let rows_content_equal ctx row1 row2 =
  let f1 = Rel.row_tuple ctx row1 and f2 = Rel.row_tuple ctx row2 in
  Array.length f1 = Array.length f2
  && (let ok = ref true in
      Array.iteri (fun i v -> if not (Value.identical v f2.(i)) then ok := false) f1;
      !ok)

let union_impl ctx values conts =
  match values, conts with
  | [ rel1; rel2 ], [ k ] ->
    let oid1 = as_reloid ctx ~what:"union" rel1 and oid2 = as_reloid ctx ~what:"union" rel2 in
    let n1 = Rel.length ctx oid1 and n2 = Rel.length ctx oid2 in
    let rows = Array.make (n1 + n2) Value.Unit in
    Rel.iteri ctx oid1 (fun i row -> rows.(i) <- row);
    Rel.iteri ctx oid2 (fun i row -> rows.(n1 + i) <- row);
    Runtime.charge ctx (1 + (2 * Array.length rows));
    ret k
      (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid1 ^ "∪" ^ rel_name ctx oid2) rows))
  | _ -> Runtime.fault "union: bad arguments"

let rel_exists ctx oid f =
  try
    Rel.iteri ctx oid (fun _ row -> if f row then raise Found_row);
    false
  with Found_row -> true

let filter_against name keep_if_found ctx values conts =
  match values, conts with
  | [ rel1; rel2 ], [ k ] ->
    let oid1 = as_reloid ctx ~what:name rel1 and oid2 = as_reloid ctx ~what:name rel2 in
    let n2 = Rel.length ctx oid2 in
    let out = ref [] in
    Rel.iteri ctx oid1 (fun _ row1 ->
        Runtime.charge ctx (1 + n2);
        if rel_exists ctx oid2 (fun row2 -> rows_content_equal ctx row1 row2) = keep_if_found
        then out := row1 :: !out);
    let kept = Array.of_list (List.rev !out) in
    Runtime.charge ctx (1 + (2 * Array.length kept));
    ret k (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid1 ^ "'") kept))
  | _ -> Runtime.fault "%s: bad arguments" name

let distinct_impl ctx values conts =
  match values, conts with
  | [ rel ], [ k ] ->
    let oid = as_reloid ctx ~what:"distinct" rel in
    let kept = ref [] in
    Rel.iteri ctx oid (fun _ row ->
        Runtime.charge ctx (1 + List.length !kept);
        if not (List.exists (fun seen -> rows_content_equal ctx row seen) !kept) then
          kept := row :: !kept);
    let rows = Array.of_list (List.rev !kept) in
    Runtime.charge ctx (1 + (2 * Array.length rows));
    ret k (Value.Oidv (Rel.of_rows ctx ~name:(rel_name ctx oid ^ "[δ]") rows))
  | _ -> Runtime.fault "distinct: bad arguments"

let agg_impl name better ctx values conts =
  match values, conts with
  | [ f; rel ], [ ce; cc ] -> (
    let oid = as_reloid ctx ~what:name rel in
    if Rel.length ctx oid = 0 then ret ce (Value.Str (name ^ ": empty relation"))
    else
      try
        let best = ref None in
        Rel.iteri ctx oid (fun _ row ->
            match call1 ctx f row with
            | Ok (Value.Int i) -> (
              match !best with
              | None -> best := Some i
              | Some b -> if better i b then best := Some i)
            | Ok v -> Runtime.fault "%s: function returned %s" name (Value.type_name v)
            | Error e -> raise (Bail e));
        match !best with
        | Some b -> ret cc (Value.Int b)
        | None -> assert false
      with
      | Bail e -> ret ce e)
  | _ -> Runtime.fault "%s: bad arguments" name

let impls () : (string * Runtime.impl) list =
  [
    "select", select_impl;
    "project", project_impl;
    "join", join_impl;
    "idxjoin", idxjoin_impl;
    "exists", exists_impl;
    "empty", empty_impl;
    "count", count_impl;
    "sum", sum_impl;
    "foreach", foreach_impl;
    "tuple", tuple_impl;
    "relation", relation_impl;
    "insert", insert_impl;
    "ontrigger", ontrigger_impl;
    "mkindex", mkindex_impl;
    "indexselect", indexselect_impl;
    "union", union_impl;
    "inter", filter_against "inter" true;
    "diff", filter_against "diff" false;
    "distinct", distinct_impl;
    "minagg", agg_impl "minagg" ( < );
    "maxagg", agg_impl "maxagg" ( > );
  ]

let names = List.map fst (impls ())

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Runtime.install ();
    List.iter (fun d -> Prim.register ~override:true d) (descriptors ());
    List.iter (fun (name, impl) -> Runtime.register_impl ~override:true name impl) (impls ())
  end
