type effect_class =
  | Pure
  | Observer
  | Mutator
  | Control
  | External

let pp_effect_class ppf cls =
  Format.pp_print_string ppf
    (match cls with
    | Pure -> "pure"
    | Observer -> "observer"
    | Mutator -> "mutator"
    | Control -> "control"
    | External -> "external")

type attrs = {
  effects : effect_class;
  commutative : bool;
  can_fold : bool;
}

let worst_attrs = { effects = External; commutative = false; can_fold = false }

type t = {
  name : string;
  value_arity : int option;
  cont_arity : int option;
  attrs : attrs;
  base_cost : int;
  meta_eval : Term.app -> Term.app option;
  check_app : Term.app -> (unit, string) result;
}

let is_value_arg = function
  | Term.Lit _ | Term.Prim _ -> true
  | Term.Var id -> not (Ident.is_cont id)
  | Term.Abs a -> Term.abs_kind a = `Proc

let is_cont_arg = function
  | Term.Var id -> Ident.is_cont id
  | Term.Abs a -> Term.abs_kind a = `Cont
  | Term.Lit _ | Term.Prim _ -> false

let generic_check ~value_arity ~cont_arity (app : Term.app) =
  let args = app.Term.args in
  let total = List.length args in
  let nv =
    match value_arity, cont_arity with
    | Some nv, _ -> nv
    | None, Some nc -> total - nc
    | None, None -> total
  in
  let nc =
    match cont_arity with
    | Some nc -> nc
    | None -> total - nv
  in
  if nv < 0 || nc < 0 || total <> nv + nc then
    Error (Printf.sprintf "expected %d value and %d continuation arguments, got %d" nv nc total)
  else begin
    let check i arg =
      if i < nv then
        if is_value_arg arg then Ok ()
        else Error (Printf.sprintf "argument %d must be a value" (i + 1))
      else if is_cont_arg arg then Ok ()
      else Error (Printf.sprintf "argument %d must be a continuation" (i + 1))
    in
    let rec loop i = function
      | [] -> Ok ()
      | arg :: rest -> (
        match check i arg with
        | Ok () -> loop (i + 1) rest
        | Error _ as e -> e)
    in
    loop 0 args
  end

let make ~name ?(value_arity = Some 0) ?(cont_arity = Some 1) ?(attrs = worst_attrs)
    ?(base_cost = 1) ?(meta_eval = fun _ -> None) ?check_app () =
  let check_app =
    match check_app with
    | Some f -> f
    | None -> generic_check ~value_arity ~cont_arity
  in
  { name; value_arity; cont_arity; attrs; base_cost; meta_eval; check_app }

let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let register ?(override = false) t =
  if (not override) && Hashtbl.mem registry t.name then
    invalid_arg (Printf.sprintf "Prim.register: %S already registered" t.name);
  Hashtbl.replace registry t.name t

let find name = Hashtbl.find_opt registry name

let find_exn name =
  match find name with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Prim.find_exn: unknown primitive %S" name)

let mem name = Hashtbl.mem registry name

let all () =
  Hashtbl.fold (fun _ t acc -> t :: acc) registry []
  |> List.sort (fun a b -> String.compare a.name b.name)

let call_overhead = 2

let cost_of_app (app : Term.app) =
  match app.Term.func with
  | Term.Prim name -> (
    match find name with
    | Some t -> t.base_cost
    | None -> call_overhead)
  | Term.Lit _ | Term.Var _ | Term.Abs _ -> call_overhead + List.length app.Term.args
