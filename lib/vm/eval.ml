open Tml_core

type outcome =
  | Done of Value.t
  | Raised of Value.t
  | No_fuel
  | Fault of string

let pp_outcome ppf = function
  | Done v -> Format.fprintf ppf "done %a" Value.pp v
  | Raised v -> Format.fprintf ppf "raised %a" Value.pp v
  | No_fuel -> Format.pp_print_string ppf "out of fuel"
  | Fault msg -> Format.fprintf ppf "fault: %s" msg

let outcome_equal a b =
  match a, b with
  | Done x, Done y | Raised x, Raised y -> Value.identical x y
  | No_fuel, No_fuel -> true
  | Fault _, Fault _ -> true
  | _ -> false

let eval_value ctx ~env (v : Term.value) : Value.t =
  match v with
  | Term.Lit l -> Value.of_literal l
  | Term.Var id -> (
    match Ident.Map.find_opt id env with
    | Some rv -> rv
    | None -> Runtime.fault "unbound identifier %s" (Ident.to_string id))
  | Term.Prim name -> Value.Primv name
  | Term.Abs a ->
    ignore ctx;
    Value.Closure { Value.t_abs = a; t_env = env }

(* Split an evaluated argument list into values and continuations using the
   static shape of the application. *)
let split_args name (term_args : Term.value list) (evaled : Value.t list) =
  match name with
  | "==" -> (
    match Primitives.case_split term_args with
    | Some (_, tags, branches, default) ->
      let n_values = 1 + List.length tags in
      let n_conts = List.length branches + (if default = None then 0 else 1) in
      ignore n_conts;
      let rec split i acc = function
        | rest when i = n_values -> List.rev acc, rest
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> Runtime.fault "==: missing arguments"
      in
      split 0 [] evaled
    | None -> Runtime.fault "==: malformed application")
  | _ -> (
    match Prim.find name with
    | None -> Runtime.fault "unknown primitive %S" name
    | Some d -> (
      match d.cont_arity with
      | Some nc ->
        let total = List.length evaled in
        if total < nc then Runtime.fault "%s: expected %d continuations" name nc;
        let rec split i acc = function
          | rest when i = total - nc -> List.rev acc, rest
          | x :: rest -> split (i + 1) (x :: acc) rest
          | [] -> assert false
        in
        split 0 [] evaled
      | None -> Runtime.fault "%s: dynamic shape not supported" name))

let rec exec ctx env (a : Term.app) : outcome =
  match a.Term.func with
  | Term.Prim "Y" -> exec_y ctx env a
  | Term.Prim name ->
    let cost =
      match Prim.find name with
      | Some d -> d.base_cost
      | None -> 1
    in
    Runtime.charge ctx cost;
    let evaled = List.map (eval_value ctx ~env) a.Term.args in
    let values, conts = split_args name a.Term.args evaled in
    let impl = Runtime.find_impl_exn name in
    let (Runtime.Invoke (k, results)) = impl ctx values conts in
    apply ctx k results
  | func ->
    let f = eval_value ctx ~env func in
    let args = List.map (eval_value ctx ~env) a.Term.args in
    apply ctx f args

and exec_y ctx env (a : Term.app) : outcome =
  Runtime.charge ctx 2;
  match a.Term.args with
  | [ binder ] -> (
    match Primitives.y_split binder with
    | Some (c0, vs, _c, k0, abss) ->
      let close v =
        match v with
        | Term.Abs ab -> { Value.t_abs = ab; t_env = env }
        | _ -> Runtime.fault "Y: non-abstraction in fixpoint nest"
      in
      let k0_clo = close k0 in
      let vs_clos = List.map close abss in
      (* Tie the knot: all closures see the recursive bindings. *)
      let env' =
        List.fold_left2
          (fun e v clo -> Ident.Map.add v (Value.Closure clo) e)
          (Ident.Map.add c0 (Value.Closure k0_clo) env)
          vs vs_clos
      in
      k0_clo.Value.t_env <- env';
      List.iter (fun clo -> clo.Value.t_env <- env') vs_clos;
      apply ctx (Value.Closure k0_clo) []
    | None -> Runtime.fault "Y: malformed binder")
  | _ -> Runtime.fault "Y: expected exactly one argument"

and apply ctx (f : Value.t) (args : Value.t list) : outcome =
  match f with
  | Value.Closure c ->
    Runtime.charge ctx (1 + List.length args);
    let params = c.Value.t_abs.Term.params in
    if List.length params <> List.length args then
      Runtime.fault "closure of %d parameters applied to %d arguments" (List.length params)
        (List.length args);
    let env =
      List.fold_left2 (fun e p v -> Ident.Map.add p v e) c.Value.t_env params args
    in
    exec ctx env c.Value.t_abs.Term.body
  | Value.Primv name ->
    (* A primitive used as a first-class value: its argument shape is
       recovered from the registered arities. *)
    let d =
      match Prim.find name with
      | Some d -> d
      | None -> Runtime.fault "unknown primitive %S" name
    in
    Runtime.charge ctx d.base_cost;
    (match d.cont_arity with
    | Some nc ->
      let total = List.length args in
      if total < nc then Runtime.fault "%s: expected %d continuations" name nc;
      let rec split i acc = function
        | rest when i = total - nc -> List.rev acc, rest
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> assert false
      in
      let values, conts = split 0 [] args in
      let impl = Runtime.find_impl_exn name in
      let (Runtime.Invoke (k, results)) = impl ctx values conts in
      apply ctx k results
    | None -> Runtime.fault "%s: cannot be applied as a first-class value" name)
  | Value.Oidv oid -> (
    match Value.Heap.get_opt ctx.Runtime.heap oid with
    | Some (Value.Func fo) -> apply ctx (func_impl ctx fo) args
    | Some _ -> Runtime.fault "%s is not applicable" (Oid.to_string oid)
    | None -> Runtime.fault "dangling function reference %s" (Oid.to_string oid))
  | Value.Halt ok -> (
    match args with
    | [ v ] -> if ok then Done v else Raised v
    | vs -> Runtime.fault "halt continuation received %d values" (List.length vs))
  | Value.Mclosure _ | Value.Mblock _ ->
    Runtime.fault "cannot apply a machine closure in the tree-walking evaluator"
  | v -> Runtime.fault "cannot apply %s" (Value.type_name v)

and func_impl _ctx (fo : Value.func_obj) : Value.t =
  match fo.Value.fo_tree_impl with
  | Some impl -> impl
  | None ->
    let env =
      List.fold_left
        (fun e (id, v) -> Ident.Map.add id v e)
        Ident.Map.empty fo.Value.fo_bindings
    in
    let impl =
      match fo.Value.fo_tml with
      | Term.Abs a -> Value.Closure { Value.t_abs = a; t_env = env }
      | Term.Prim name ->
        (* η-reduction can leave a bare primitive as the whole function *)
        Value.Primv name
      | Term.Lit l -> Value.of_literal l
      | Term.Var _ ->
        Runtime.fault "function object %s is an unbound variable" fo.Value.fo_name
    in
    fo.Value.fo_tree_impl <- Some impl;
    impl

let protect ctx f =
  let saved = ctx.Runtime.subcall in
  let restore () = ctx.Runtime.subcall <- saved in
  (* Install this engine for re-entrant calls made by higher-order
     primitives. *)
  (ctx.Runtime.subcall <-
     (fun fv args ->
       match apply ctx fv (args @ [ Value.Halt false; Value.Halt true ]) with
       | Done v -> Ok v
       | Raised v -> Error v
       | No_fuel -> raise Runtime.Fuel_exhausted
       | Fault msg -> raise (Runtime.Fault msg)));
  match f () with
  | outcome ->
    restore ();
    outcome
  | exception Runtime.Fuel_exhausted ->
    restore ();
    No_fuel
  | exception Runtime.Fault msg ->
    restore ();
    Fault msg

let run_app ctx ~env a = protect ctx (fun () -> exec ctx env a)
let apply ctx f args = protect ctx (fun () -> apply ctx f args)

let run_proc ctx proc args =
  let steps0 = ctx.Runtime.steps in
  let outcome = apply ctx proc (args @ [ Value.Halt false; Value.Halt true ]) in
  Tml_obs.Events.vm_run ~engine:"eval" ~steps:(ctx.Runtime.steps - steps0);
  outcome

let eval_value ctx ~env v = eval_value ctx ~env v
