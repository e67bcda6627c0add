open Term

type error = {
  message : string;
  context : string;
}

let pp_error ppf e = Format.fprintf ppf "%s@ in %s" e.message e.context

type state = {
  mutable errors : error list;
  bound : unit Ident.Tbl.t;
  free_allowed : Ident.t -> bool;
}

let add_error st message context_pp =
  st.errors <- { message; context = context_pp () } :: st.errors

let app_ctx (a : app) () = Pp.app_to_string a
let value_ctx (v : value) () = Pp.value_to_string v

(* Expected role of an abstraction occurrence. *)
type role =
  | As_value  (* user-level procedure: params v1..vn ce cc *)
  | As_cont   (* continuation: no continuation parameters *)
  | As_y_binder  (* the λ(c0 v1..vn c) argument of Y; checked by the prim *)

let check_proc_shape st (a : abs) ctx =
  let n = List.length a.params in
  let conts = List.filter Ident.is_cont a.params in
  let trailing_two =
    n >= 2
    &&
    match List.filteri (fun i _ -> i >= n - 2) a.params with
    | [ ce; cc ] -> Ident.is_cont ce && Ident.is_cont cc
    | _ -> false
  in
  if not (List.length conts = 2 && trailing_two) then
    add_error st
      "abstraction used as a value must take exactly two trailing continuation parameters"
      ctx

let check_cont_shape st (a : abs) ctx =
  if List.exists Ident.is_cont a.params then
    add_error st "abstraction used as a continuation must not take continuation parameters" ctx

let rec check_value_at st role v =
  match v with
  | Lit _ | Prim _ | Var _ -> ()
  | Abs a ->
    (match role with
    | As_value -> check_proc_shape st a (value_ctx v)
    | As_cont -> check_cont_shape st a (value_ctx v)
    | As_y_binder -> ());
    bind_params st a.params (value_ctx v);
    (match role with
    | As_y_binder -> check_y_binder_body st a
    | As_value | As_cont -> check_app_node st a.body)

and bind_params st params ctx =
  List.iter
    (fun p ->
      if Ident.Tbl.mem st.bound p then
        add_error st
          (Format.asprintf "identifier %a is bound more than once (unique binding rule)"
             Ident.pp p)
          ctx
      else Ident.Tbl.add st.bound p ())
    params

(* The binder abstraction of Y has the canonical body (c k0 abs1..absn):
   delivering the mutually recursive abstractions to the binder continuation
   is the one sanctioned place where a continuation abstraction (k0) flows
   into an argument position of a continuation call. *)
and check_y_binder_body st (a : abs) =
  let body = a.body in
  match body.func, body.args with
  | Var c, k0 :: rest
    when Ident.is_cont c
         && (match List.rev a.params with
            | last :: _ -> Ident.equal last c
            | [] -> false) ->
    check_value_at st As_cont k0;
    (* pair each nest member with its variable: members bound to
       continuation variables are continuations, the others procedures *)
    let vs =
      match a.params with
      | _c0 :: tl -> List.filteri (fun i _ -> i < List.length tl - 1) tl
      | [] -> []
    in
    if List.length vs = List.length rest then
      List.iter2
        (fun v abs_v ->
          check_value_at st (if Ident.is_cont v then As_cont else As_value) abs_v)
        vs rest
    else List.iter (fun v -> check_value_at st As_value v) rest
  | _ ->
    (* Non-canonical: the primitive's own check reported it; still validate
       the body generically to surface scoping problems. *)
    check_app_node st body

and check_arg st ~what ~cont_expected arg ctx =
  if cont_expected then begin
    if not (Prim.is_cont_arg arg) then
      add_error st (Printf.sprintf "%s must be a continuation" what) ctx;
    check_value_at st As_cont arg
  end
  else begin
    if not (Prim.is_value_arg arg) then
      add_error st
        (Printf.sprintf "%s must be a value (continuations may not escape)" what)
        ctx;
    check_value_at st As_value arg
  end

and check_app_node st (a : app) =
  let ctx = app_ctx a in
  match a.func with
  | Prim name -> (
    match Prim.find name with
    | None -> add_error st (Printf.sprintf "unknown primitive %S" name) ctx
    | Some d -> (
      (match d.check_app a with
      | Ok () -> ()
      | Error msg -> add_error st (Printf.sprintf "ill-formed %S application: %s" name msg) ctx);
      (* Recurse with the right roles. *)
      match name with
      | "Y" -> List.iter (fun arg -> check_value_at st As_y_binder arg) a.args
      | "==" ->
        List.iter
          (fun arg ->
            if Prim.is_cont_arg arg then check_value_at st As_cont arg
            else check_value_at st As_value arg)
          a.args
      | _ ->
        let total = List.length a.args in
        let nc = match d.cont_arity with
          | Some nc -> nc
          | None -> 0
        in
        List.iteri
          (fun i arg ->
            let cont_expected = i >= total - nc in
            check_arg st
              ~what:(Printf.sprintf "argument %d of %S" (i + 1) name)
              ~cont_expected arg ctx)
          a.args))
  | Var id when Ident.is_cont id ->
    (* Continuation invocation: all arguments are computed values. *)
    List.iteri
      (fun i arg ->
        check_arg st
          ~what:(Printf.sprintf "argument %d of continuation call" (i + 1))
          ~cont_expected:false arg ctx)
      a.args
  | Var _ | Lit (Literal.Oid _) ->
    (* Procedure call through a variable or a store reference: value
       arguments followed by the exception and the normal continuation. *)
    let total = List.length a.args in
    if total < 2 then
      add_error st "procedure call must pass an exception and a normal continuation" ctx
    else
      List.iteri
        (fun i arg ->
          check_arg st
            ~what:(Printf.sprintf "argument %d of procedure call" (i + 1))
            ~cont_expected:(i >= total - 2) arg ctx)
        a.args
  | Abs abs_f ->
    (* Direct application of an abstraction (a β-redex): arguments match the
       parameter sorts pointwise. *)
    let np = List.length abs_f.params and na = List.length a.args in
    if np <> na then
      add_error st (Printf.sprintf "abstraction of %d parameters applied to %d arguments" np na)
        ctx
    else
      List.iter2
        (fun p arg ->
          check_arg st
            ~what:(Format.asprintf "argument for parameter %a" Ident.pp p)
            ~cont_expected:(Ident.is_cont p) arg ctx)
        abs_f.params a.args;
    bind_params st abs_f.params ctx;
    check_app_node st abs_f.body
  | Lit _ ->
    add_error st "only procedures, continuations and primitives can be applied" ctx

(* Scoping: every variable occurrence is either bound by an enclosing binder
   or allowed free. *)
let check_scoping st (a : app) =
  let rec go_value env v =
    match v with
    | Lit _ | Prim _ -> ()
    | Var id ->
      if not (Ident.Set.mem id env || st.free_allowed id) then
        add_error st
          (Format.asprintf "unbound identifier %a" Ident.pp id)
          (value_ctx v)
    | Abs abs ->
      let env = List.fold_left (fun e p -> Ident.Set.add p e) env abs.params in
      go_app env abs.body
  and go_app env (node : app) =
    go_value env node.func;
    List.iter (go_value env) node.args
  in
  go_app Ident.Set.empty a

let run free_allowed checker =
  let st = { errors = []; bound = Ident.Tbl.create 64; free_allowed } in
  checker st;
  match st.errors with
  | [] -> Ok ()
  | errs -> Error (List.rev errs)

let default_free = fun _ -> true

let check_app ?(free_allowed = default_free) a =
  run free_allowed (fun st ->
      check_app_node st a;
      check_scoping st a)

let check_value ?(free_allowed = default_free) v =
  run free_allowed (fun st ->
      check_value_at st As_value v;
      match v with
      | Abs abs ->
        let env = List.fold_left (fun e p -> Ident.Set.add p e) Ident.Set.empty abs.params in
        let rec go_value env v =
          match v with
          | Lit _ | Prim _ -> ()
          | Var id ->
            if not (Ident.Set.mem id env || st.free_allowed id) then
              add_error st (Format.asprintf "unbound identifier %a" Ident.pp id) (value_ctx v)
          | Abs a ->
            let env = List.fold_left (fun e p -> Ident.Set.add p e) env a.params in
            go_app env a.body
        and go_app env (node : app) =
          go_value env node.func;
          List.iter (go_value env) node.args
        in
        go_app env abs.body
      | Lit _ | Var _ | Prim _ -> ())

let well_formed_value v = check_value v = Ok ()
