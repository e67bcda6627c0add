type value =
  | Lit of Literal.t
  | Var of Ident.t
  | Prim of string
  | Abs of abs

and abs = {
  params : Ident.t list;
  body : app;
}

and app = {
  func : value;
  args : value list;
}

let lit l = Lit l
let unit_ = Lit Literal.Unit
let bool_ b = Lit (Literal.Bool b)
let int i = Lit (Literal.Int i)
let char c = Lit (Literal.Char c)
let real r = Lit (Literal.Real r)
let str s = Lit (Literal.Str s)
let oid o = Lit (Literal.Oid o)
let var id = Var id
let prim name = Prim name
let abs params body = Abs { params; body }
let app func args = { func; args }

let cont params body =
  assert (not (List.exists Ident.is_cont params));
  Abs { params; body }

let proc params mkbody =
  let ce = Ident.fresh ~sort:Cont "ce" in
  let cc = Ident.fresh ~sort:Cont "cc" in
  Abs { params = params @ [ ce; cc ]; body = mkbody ~ce ~cc }

let abs_kind a = if List.exists Ident.is_cont a.params then `Proc else `Cont

let is_abs = function
  | Abs _ -> true
  | Lit _ | Var _ | Prim _ -> false

let is_trivial = function
  | Lit _ | Var _ | Prim _ -> true
  | Abs _ -> false

(* Identity-preserving map: returns the original list (physically) when no
   element changed, so rebuilding passes keep unchanged subtrees shared —
   the property the reduction and expansion passes' O(1) "did this
   change?" checks rely on. *)
let map_sharing f l =
  let changed = ref false in
  let l' =
    List.map
      (fun x ->
        let x' = f x in
        if not (x' == x) then changed := true;
        x')
      l
  in
  if !changed then l' else l

let rec size_value = function
  | Lit _ | Var _ | Prim _ -> 1
  | Abs a -> 1 + List.length a.params + size_app a.body

and size_app a = 1 + size_value a.func + List.fold_left (fun n v -> n + size_value v) 0 a.args

let rec free_value bound acc = function
  | Lit _ | Prim _ -> acc
  | Var id -> if Ident.Set.mem id bound then acc else Ident.Set.add id acc
  | Abs a ->
    let bound = List.fold_left (fun s id -> Ident.Set.add id s) bound a.params in
    free_app bound acc a.body

and free_app bound acc a = List.fold_left (free_value bound) (free_value bound acc a.func) a.args

let free_vars_app a = free_app Ident.Set.empty Ident.Set.empty a
let free_vars_value v = free_value Ident.Set.empty Ident.Set.empty v

let prims_used a =
  let seen = Hashtbl.create 16 in
  let rec go_value = function
    | Lit _ | Var _ -> ()
    | Prim name -> if not (Hashtbl.mem seen name) then Hashtbl.add seen name ()
    | Abs abs -> go_app abs.body
  and go_app { func; args } =
    go_value func;
    List.iter go_value args
  in
  go_app a;
  Hashtbl.fold (fun name () names -> name :: names) seen [] |> List.sort String.compare

let rec exists_app p a =
  p a
  || List.exists
       (function
         | Abs abs -> exists_app p abs.body
         | Lit _ | Var _ | Prim _ -> false)
       (a.func :: a.args)

let rec iter_apps f a =
  f a;
  let sub = function
    | Abs abs -> iter_apps f abs.body
    | Lit _ | Var _ | Prim _ -> ()
  in
  sub a.func;
  List.iter sub a.args

let rec equal_value v1 v2 =
  match v1, v2 with
  | Lit a, Lit b -> Literal.equal a b
  | Var a, Var b -> Ident.equal a b
  | Prim a, Prim b -> String.equal a b
  | Abs a, Abs b ->
    List.length a.params = List.length b.params
    && List.for_all2 Ident.equal a.params b.params
    && equal_app a.body b.body
  | (Lit _ | Var _ | Prim _ | Abs _), _ -> false

and equal_app a1 a2 =
  equal_value a1.func a2.func
  && List.length a1.args = List.length a2.args
  && List.for_all2 equal_value a1.args a2.args

(* α-equivalence: carry a map from left-bound stamps to right-bound stamps.
   Free variables are compared with [free_eq]. *)
let rec aeq_value free_eq env v1 v2 =
  match v1, v2 with
  | Lit a, Lit b -> Literal.equal a b
  | Prim a, Prim b -> String.equal a b
  | Var a, Var b -> (
    match Ident.Map.find_opt a env with
    | Some b' -> Ident.equal b b'
    | None -> free_eq a b)
  | Abs a, Abs b ->
    List.length a.params = List.length b.params
    && List.for_all2 (fun p q -> p.Ident.sort = q.Ident.sort) a.params b.params
    &&
    let env = List.fold_left2 (fun env p q -> Ident.Map.add p q env) env a.params b.params in
    aeq_app free_eq env a.body b.body
  | (Lit _ | Var _ | Prim _ | Abs _), _ -> false

and aeq_app free_eq env a1 a2 =
  aeq_value free_eq env a1.func a2.func
  && List.length a1.args = List.length a2.args
  && List.for_all2 (aeq_value free_eq env) a1.args a2.args

let alpha_equal_value v1 v2 = aeq_value Ident.equal Ident.Map.empty v1 v2
let alpha_equal_app a1 a2 = aeq_app Ident.equal Ident.Map.empty a1 a2

let by_name (a : Ident.t) (b : Ident.t) =
  String.equal a.Ident.name b.Ident.name && a.Ident.sort = b.Ident.sort

let alpha_equal_by_name_value v1 v2 = aeq_value by_name Ident.Map.empty v1 v2
let alpha_equal_by_name_app a1 a2 = aeq_app by_name Ident.Map.empty a1 a2
