open Tml_core
module T = Typecheck

type mode =
  | Library
  | Direct

type compiled_def = {
  c_name : string;
  c_tml : Term.value;
  c_is_fun : bool;
  c_prov : Tml_obs.Provenance.t;
}

type compiled = {
  c_defs : compiled_def list;
  c_main : Term.value option;
  c_global_ids : (string, Ident.t) Hashtbl.t;
}

type genv = {
  mode : mode;
  global_ids : (string, Ident.t) Hashtbl.t;
}

let global_id genv name =
  match Hashtbl.find_opt genv.global_ids name with
  | Some id -> id
  | None ->
    let id = Ident.fresh name in
    Hashtbl.add genv.global_ids name id;
    id

type local =
  | Limm of Term.value  (** an in-scope TML value (variable or literal) *)
  | Lbox of Ident.t     (** a 1-slot array holding a mutable variable *)

type lenv = {
  genv : genv;
  locals : (string * local) list;
  ce : Ident.t;
}

let with_local env x l = { env with locals = (x, l) :: env.locals }

(* Reify the meta-continuation as a TML join continuation, for expressions
   that would otherwise duplicate the rest of the program (conditionals,
   short-circuit booleans, try). *)
let reify k build =
  let kj = Ident.fresh ~sort:Cont "j" in
  let x = Ident.fresh "x" in
  Term.app (Term.abs [ kj ] (build (Term.var kj))) [ Term.abs [ x ] (k (Term.var x)) ]

(* Bind a computed value to a TL name: trivial values flow through the
   meta-environment; abstractions get a real λ-binding so that multiple uses
   do not duplicate code or binders. *)
let bind_value env x v (continue_ : lenv -> Term.app) =
  if Term.is_trivial v then continue_ (with_local env x (Limm v))
  else begin
    let x' = Ident.fresh x in
    Term.app
      (Term.abs [ x' ] (continue_ (with_local env x (Limm (Term.var x')))))
      [ v ]
  end

let lib_for_binop ty op =
  let intlib = function
    | Ast.Add -> "add"
    | Ast.Sub -> "sub"
    | Ast.Mul -> "mul"
    | Ast.Div -> "div"
    | Ast.Mod -> "mod"
    | Ast.Lt -> "lt"
    | Ast.Le -> "le"
    | Ast.Gt -> "gt"
    | Ast.Ge -> "ge"
    | _ -> assert false
  in
  match ty with
  | Ast.Tstring -> "strlib.concat"  (* '+' on strings *)
  | Ast.Treal -> "reallib." ^ intlib op
  | _ -> "intlib." ^ intlib op

let prim_for_binop ty op =
  let real = ty = Ast.Treal in
  match op with
  | Ast.Add when ty = Ast.Tstring -> "sconcat"
  | Ast.Add -> if real then "f+" else "+"
  | Ast.Sub -> if real then "f-" else "-"
  | Ast.Mul -> if real then "f*" else "*"
  | Ast.Div -> if real then "f/" else "/"
  | Ast.Mod -> "%"
  | Ast.Lt -> if real then "f<" else "<"
  | Ast.Le -> if real then "f<=" else "<="
  | Ast.Gt -> if real then "f>" else ">"
  | Ast.Ge -> if real then "f>=" else ">="
  | Ast.Eq | Ast.Ne | Ast.And | Ast.Or -> assert false

let arith_prims = [ "+"; "-"; "*"; "/"; "%" ]
let cmp_prims = [ "<"; "<="; ">"; ">="; "f<"; "f<="; "f>"; "f>=" ]

let rec cps env (e : T.texpr) (k : Term.value -> Term.app) : Term.app =
  match e.T.tdesc with
  | T.Tunit_ -> k Term.unit_
  | T.Tbool_ b -> k (Term.bool_ b)
  | T.Tint_ i -> k (Term.int i)
  | T.Treal_ r -> k (Term.real r)
  | T.Tchar_ c -> k (Term.char c)
  | T.Tstr_ s -> k (Term.str s)
  | T.Tlocal x | T.Tmutable x -> (
    match List.assoc_opt x env.locals with
    | Some (Limm v) -> k v
    | Some (Lbox b) ->
      let t = Ident.fresh x in
      Term.app (Term.prim "[]")
        [ Term.var b; Term.int 0; Term.abs [ t ] (k (Term.var t)) ]
    | None -> invalid_arg (Printf.sprintf "Lower: unbound local %s" x))
  | T.Tglobal cname -> k (Term.var (global_id env.genv cname))
  | T.Tcall (f, args) ->
    cps env f (fun fv ->
        cps_list env args (fun avs -> call env fv avs k))
  | T.Tbinop (op, a, b) -> cps_binop env op a b k
  | T.Tunop (Ast.Neg, a) ->
    cps env a (fun av ->
        match a.T.tty with
        | Ast.Treal ->
          let t = Ident.fresh "t" in
          Term.app (Term.prim "fneg") [ av; Term.abs [ t ] (k (Term.var t)) ]
        | _ -> (
          match env.genv.mode with
          | Direct ->
            let t = Ident.fresh "t" in
            Term.app (Term.prim "-")
              [ Term.int 0; av; Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ]
          | Library -> call env (Term.var (global_id env.genv "intlib.neg")) [ av ] k))
  | T.Tunop (Ast.Not, a) ->
    cps env a (fun av ->
        let t = Ident.fresh "t" in
        Term.app (Term.prim "not") [ av; Term.abs [ t ] (k (Term.var t)) ])
  | T.Tif (c, t, eo) ->
    cps env c (fun cv ->
        reify k (fun kj ->
            let then_branch = Term.abs [] (cps env t (fun v -> Term.app kj [ v ])) in
            let else_branch =
              Term.abs []
                (match eo with
                | Some els -> cps env els (fun v -> Term.app kj [ v ])
                | None -> Term.app kj [ Term.unit_ ])
            in
            Term.app (Term.prim "==") [ cv; Term.bool_ true; then_branch; else_branch ]))
  | T.Tlet (x, rhs, body) -> cps env rhs (fun v -> bind_value env x v (fun env -> cps env body k))
  | T.Tvardef (x, rhs, body) ->
    cps env rhs (fun v ->
        let b = Ident.fresh x in
        Term.app (Term.prim "new")
          [ Term.int 1; v; Term.abs [ b ] (cps (with_local env x (Lbox b)) body k) ])
  | T.Tassign (x, rhs) -> (
    match List.assoc_opt x env.locals with
    | Some (Lbox b) ->
      cps env rhs (fun v ->
          let u = Ident.fresh "u" in
          Term.app (Term.prim "[:=]")
            [ Term.var b; Term.int 0; v; Term.abs [ u ] (k Term.unit_) ])
    | _ -> invalid_arg (Printf.sprintf "Lower: %s is not a mutable variable" x))
  | T.Tseq (a, b) -> cps env a (fun _ -> cps env b k)
  | T.Twhile (c, body) -> cps_while env c body k
  | T.Tfor (x, lo, upto, hi, body) -> cps_for env x lo upto hi body k
  | T.Tfn (params, _ret, body) -> k (lower_fn env params body)
  | T.Tarraylit (n, init) ->
    cps env n (fun nv ->
        cps env init (fun iv ->
            match env.genv.mode with
            | Direct ->
              let t = Ident.fresh "a" in
              Term.app (Term.prim "new") [ nv; iv; Term.abs [ t ] (k (Term.var t)) ]
            | Library -> call env (Term.var (global_id env.genv "arraylib.make")) [ nv; iv ] k))
  | T.Tindex (a, i) -> (
    cps env a (fun av ->
        cps env i (fun iv ->
            match a.T.tty, env.genv.mode with
            | Ast.Ttuple _, _ | _, Direct ->
              let t = Ident.fresh "t" in
              Term.app (Term.prim "[]") [ av; iv; Term.abs [ t ] (k (Term.var t)) ]
            | _, Library -> call env (Term.var (global_id env.genv "arraylib.get")) [ av; iv ] k)))
  | T.Tstore (a, i, v) -> (
    cps env a (fun av ->
        cps env i (fun iv ->
            cps env v (fun vv ->
                match env.genv.mode with
                | Direct ->
                  let u = Ident.fresh "u" in
                  Term.app (Term.prim "[:=]")
                    [ av; iv; vv; Term.abs [ u ] (k Term.unit_) ]
                | Library ->
                  call env (Term.var (global_id env.genv "arraylib.set")) [ av; iv; vv ]
                    (fun _ -> k Term.unit_)))))
  | T.Ttuple_ es ->
    cps_list env es (fun vs ->
        let t = Ident.fresh "tup" in
        Term.app (Term.prim "tuple") (vs @ [ Term.abs [ t ] (k (Term.var t)) ]))
  | T.Tfield (a, n) ->
    cps env a (fun av ->
        let t = Ident.fresh "f" in
        Term.app (Term.prim "[]") [ av; Term.int (n - 1); Term.abs [ t ] (k (Term.var t)) ])
  | T.Traise payload -> cps env payload (fun v -> Term.app (Term.var env.ce) [ v ])
  | T.Ttry (body, x, handler) ->
    reify k (fun kj ->
        let h = Ident.fresh ~sort:Cont "h" in
        let xexn = Ident.fresh x in
        let body_app = cps { env with ce = h } body (fun v -> Term.app kj [ v ]) in
        let handler_abs =
          Term.abs [ xexn ]
            (cps (with_local env x (Limm (Term.var xexn))) handler (fun v ->
                 Term.app kj [ v ]))
        in
        Term.app (Term.abs [ h ] body_app) [ handler_abs ])
  | T.Tprimcall (name, args) -> cps_primcall env name args k
  | T.Tccall (name, args) ->
    cps_list env args (fun vs ->
        let t = Ident.fresh "t" in
        Term.app (Term.prim "ccall")
          ((Term.str name :: vs) @ [ Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ]))
  | T.Tbuiltin (b, args) -> cps_builtin env b args k
  | T.Tselect { ttarget; tx; trel; twhere } ->
    cps env trel (fun rv ->
        let pred = lower_pred env tx twhere in
        let identity_target =
          match ttarget.T.tdesc with
          | T.Tlocal x -> x = tx
          | _ -> false
        in
        let t = Ident.fresh "sel" in
        if identity_target then
          Term.app (Term.prim "select")
            [ pred; rv; Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ]
        else begin
          let target_fn = lower_fn_over env tx ttarget in
          let t2 = Ident.fresh "proj" in
          Term.app (Term.prim "select")
            [
              pred;
              rv;
              Term.var env.ce;
              Term.abs [ t ]
                (Term.app (Term.prim "project")
                   [
                     target_fn;
                     Term.var t;
                     Term.var env.ce;
                     Term.abs [ t2 ] (k (Term.var t2));
                   ]);
            ]
        end)
  | T.Texists (x, rel, where) ->
    cps env rel (fun rv ->
        let pred = lower_pred env x where in
        let t = Ident.fresh "ex" in
        Term.app (Term.prim "exists")
          [ pred; rv; Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ])
  | T.Tforeach (x, rel, body) ->
    cps env rel (fun rv ->
        let body_fn = lower_fn_over env x body in
        let t = Ident.fresh "u" in
        Term.app (Term.prim "foreach")
          [ body_fn; rv; Term.var env.ce; Term.abs [ t ] (k Term.unit_) ])

and cps_list env es k =
  match es with
  | [] -> k []
  | e :: rest -> cps env e (fun v -> cps_list env rest (fun vs -> k (v :: vs)))

(* A procedure call: value arguments, then the lexical exception
   continuation, then a return continuation. *)
and call env fv avs k =
  let t = Ident.fresh "t" in
  Term.app fv (avs @ [ Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ])

and cps_binop env op a b k =
  match op with
  | Ast.And ->
    cps env a (fun av ->
        reify k (fun kj ->
            Term.app (Term.prim "==")
              [
                av;
                Term.bool_ true;
                Term.abs [] (cps env b (fun bv -> Term.app kj [ bv ]));
                Term.abs [] (Term.app kj [ Term.bool_ false ]);
              ]))
  | Ast.Or ->
    cps env a (fun av ->
        reify k (fun kj ->
            Term.app (Term.prim "==")
              [
                av;
                Term.bool_ true;
                Term.abs [] (Term.app kj [ Term.bool_ true ]);
                Term.abs [] (cps env b (fun bv -> Term.app kj [ bv ]));
              ]))
  | Ast.Eq | Ast.Ne ->
    let flip = op = Ast.Ne in
    cps env a (fun av ->
        cps env b (fun bv ->
            reify k (fun kj ->
                Term.app (Term.prim "==")
                  [
                    av;
                    bv;
                    Term.abs [] (Term.app kj [ Term.bool_ (not flip) ]);
                    Term.abs [] (Term.app kj [ Term.bool_ flip ]);
                  ])))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    let operand_ty = a.T.tty in
    match env.genv.mode with
    | Library ->
      cps env a (fun av ->
          cps env b (fun bv ->
              call env (Term.var (global_id env.genv (lib_for_binop operand_ty op))) [ av; bv ] k))
    | Direct ->
      cps env a (fun av ->
          cps env b (fun bv -> direct_prim_binop env (prim_for_binop operand_ty op) av bv k)))

and direct_prim_binop env name av bv k =
  if List.mem name arith_prims then begin
    let t = Ident.fresh "t" in
    Term.app (Term.prim name) [ av; bv; Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ]
  end
  else if List.mem name cmp_prims then
    reify k (fun kj ->
        Term.app (Term.prim name)
          [
            av;
            bv;
            Term.abs [] (Term.app kj [ Term.bool_ true ]);
            Term.abs [] (Term.app kj [ Term.bool_ false ]);
          ])
  else begin
    (* real arithmetic: single continuation *)
    let t = Ident.fresh "t" in
    Term.app (Term.prim name) [ av; bv; Term.abs [ t ] (k (Term.var t)) ]
  end

(* prim "name" (args) — used by the standard library.  The call shape is
   recovered from the primitive registry. *)
and cps_primcall env name args k =
  cps_list env args (fun vs ->
      if name = "==" then
        reify k (fun kj ->
            match vs with
            | [ a; b ] ->
              Term.app (Term.prim "==")
                [
                  a;
                  b;
                  Term.abs [] (Term.app kj [ Term.bool_ true ]);
                  Term.abs [] (Term.app kj [ Term.bool_ false ]);
                ]
            | _ -> invalid_arg "Lower: prim \"==\" expects two arguments")
      else if List.mem name cmp_prims then
        reify k (fun kj ->
            match vs with
            | [ a; b ] ->
              Term.app (Term.prim name)
                [
                  a;
                  b;
                  Term.abs [] (Term.app kj [ Term.bool_ true ]);
                  Term.abs [] (Term.app kj [ Term.bool_ false ]);
                ]
            | _ -> invalid_arg "Lower: comparison primitives expect two arguments")
      else begin
        let d =
          match Prim.find name with
          | Some d -> d
          | None -> invalid_arg (Printf.sprintf "Lower: unknown primitive %S" name)
        in
        let t = Ident.fresh "t" in
        match d.Prim.cont_arity with
        | Some 1 -> Term.app (Term.prim name) (vs @ [ Term.abs [ t ] (k (Term.var t)) ])
        | Some 2 ->
          Term.app (Term.prim name)
            (vs @ [ Term.var env.ce; Term.abs [ t ] (k (Term.var t)) ])
        | _ ->
          invalid_arg (Printf.sprintf "Lower: primitive %S not usable from source" name)
      end)

and cps_builtin env b args k =
  match b, env.genv.mode with
  | T.Bsize, Library ->
    cps_list env args (fun vs -> call env (Term.var (global_id env.genv "arraylib.size")) vs k)
  | T.Bsize, Direct ->
    cps_list env args (fun vs ->
        let t = Ident.fresh "t" in
        Term.app (Term.prim "size") (vs @ [ Term.abs [ t ] (k (Term.var t)) ]))
  | T.Bcount, _ ->
    cps_list env args (fun vs ->
        let t = Ident.fresh "t" in
        Term.app (Term.prim "count") (vs @ [ Term.abs [ t ] (k (Term.var t)) ]))
  | T.Brelation, _ ->
    cps_list env args (fun vs ->
        let t = Ident.fresh "r" in
        Term.app (Term.prim "relation") (vs @ [ Term.abs [ t ] (k (Term.var t)) ]))
  | T.Bmkindex, _ ->
    cps_list env args (fun vs ->
        match vs with
        | [ rv; fv ] ->
          let f0 = Ident.fresh "f0" in
          let t = Ident.fresh "u" in
          Term.app (Term.prim "-")
            [
              fv;
              Term.int 1;
              Term.var env.ce;
              Term.abs [ f0 ]
                (Term.app (Term.prim "mkindex")
                   [ rv; Term.var f0; Term.abs [ t ] (k Term.unit_) ]);
            ]
        | _ -> invalid_arg "Lower: mkindex expects two arguments")
  | T.Binsert, _ ->
    cps_list env args (fun vs ->
        let t = Ident.fresh "u" in
        Term.app (Term.prim "insert")
          (vs @ [ Term.var env.ce; Term.abs [ t ] (k Term.unit_) ]))
  | T.Bontrigger, _ ->
    cps_list env args (fun vs ->
        let t = Ident.fresh "u" in
        Term.app (Term.prim "ontrigger") (vs @ [ Term.abs [ t ] (k Term.unit_) ]))
  | T.Bunion, _ | T.Binter, _ | T.Bdiff, _ | T.Bdistinct, _ ->
    let name =
      match b with
      | T.Bunion -> "union"
      | T.Binter -> "inter"
      | T.Bdiff -> "diff"
      | _ -> "distinct"
    in
    cps_list env args (fun vs ->
        let t = Ident.fresh "r" in
        Term.app (Term.prim name) (vs @ [ Term.abs [ t ] (k (Term.var t)) ]))
  | T.Bchr, _ -> unop_prim env "int2char" args k
  | T.Bord, _ -> unop_prim env "char2int" args k
  | T.Btoreal, _ -> unop_prim env "int2real" args k
  | T.Btrunc, _ -> unop_prim env "real2int" args k

and unop_prim env name args k =
  cps_list env args (fun vs ->
      let t = Ident.fresh "t" in
      Term.app (Term.prim name) (vs @ [ Term.abs [ t ] (k (Term.var t)) ]))

and cps_while env c body k =
  let c0 = Ident.fresh ~sort:Cont "c0" in
  let loop = Ident.fresh ~sort:Cont "loop" in
  let cbind = Ident.fresh ~sort:Cont "c" in
  let entry = Term.abs [] (Term.app (Term.var loop) []) in
  let loop_body =
    Term.abs []
      (cps env c (fun cv ->
           Term.app (Term.prim "==")
             [
               cv;
               Term.bool_ true;
               Term.abs [] (cps env body (fun _ -> Term.app (Term.var loop) []));
               Term.abs [] (k Term.unit_);
             ]))
  in
  Term.app (Term.prim "Y")
    [ Term.abs [ c0; loop; cbind ] (Term.app (Term.var cbind) [ entry; loop_body ]) ]

and cps_for env x lo upto hi body k =
  cps env lo (fun lov ->
      cps env hi (fun hiv ->
          let c0 = Ident.fresh ~sort:Cont "c0" in
          let for_ = Ident.fresh ~sort:Cont "for" in
          let cbind = Ident.fresh ~sort:Cont "c" in
          let i = Ident.fresh x in
          let i2 = Ident.fresh x in
          let exit_cmp = if upto then ">" else "<" in
          let step = if upto then "+" else "-" in
          let entry = Term.abs [] (Term.app (Term.var for_) [ lov ]) in
          let head =
            Term.abs [ i ]
              (Term.app (Term.prim exit_cmp)
                 [
                   Term.var i;
                   hiv;
                   Term.abs [] (k Term.unit_);
                   Term.abs []
                     (cps
                        (with_local env x (Limm (Term.var i)))
                        body
                        (fun _ ->
                          Term.app (Term.prim step)
                            [
                              Term.var i;
                              Term.int 1;
                              Term.var env.ce;
                              Term.abs [ i2 ] (Term.app (Term.var for_) [ Term.var i2 ]);
                            ]));
                 ])
          in
          Term.app (Term.prim "Y")
            [ Term.abs [ c0; for_; cbind ] (Term.app (Term.var cbind) [ entry; head ]) ]))

(* a first-class function value: proc(x1 .. xn ce cc) *)
and lower_fn env params body =
  let param_ids = List.map (fun (x, _) -> x, Ident.fresh x) params in
  let ce' = Ident.fresh ~sort:Cont "ce" in
  let cc' = Ident.fresh ~sort:Cont "cc" in
  let inner_env =
    List.fold_left
      (fun acc (x, id) -> with_local acc x (Limm (Term.var id)))
      { env with ce = ce' }
      param_ids
  in
  Term.abs
    (List.map snd param_ids @ [ ce'; cc' ])
    (cps inner_env body (fun v -> Term.app (Term.var cc') [ v ]))

(* a one-argument procedure over a range variable (query predicates,
   targets and bodies) *)
and lower_fn_over env x body =
  let xid = Ident.fresh x in
  let ce' = Ident.fresh ~sort:Cont "ce" in
  let cc' = Ident.fresh ~sort:Cont "cc" in
  let inner_env = with_local { env with ce = ce' } x (Limm (Term.var xid)) in
  Term.abs [ xid; ce'; cc' ] (cps inner_env body (fun v -> Term.app (Term.var cc') [ v ]))

and lower_pred env x where = lower_fn_over env x where

(* ------------------------------------------------------------------ *)
(* Definitions and programs                                             *)
(* ------------------------------------------------------------------ *)

let lower_def genv (d : T.tdef) : compiled_def =
  let base_env = { genv; locals = []; ce = Ident.fresh ~sort:Cont "ce" (* replaced below *) } in
  let tml =
    if d.T.d_is_fun then begin
      let params = List.map (fun (x, _) -> x, Ident.fresh x) d.T.d_params in
      let ce = Ident.fresh ~sort:Cont "ce" in
      let cc = Ident.fresh ~sort:Cont "cc" in
      let env =
        List.fold_left
          (fun acc (x, id) -> with_local acc x (Limm (Term.var id)))
          { base_env with ce }
          params
      in
      Term.abs
        (List.map snd params @ [ ce; cc ])
        (cps env d.T.d_body (fun v -> Term.app (Term.var cc) [ v ]))
    end
    else begin
      (* a value definition becomes a nullary initialization procedure run
         at link time *)
      let ce = Ident.fresh ~sort:Cont "ce" in
      let cc = Ident.fresh ~sort:Cont "cc" in
      let env = { base_env with ce } in
      Term.abs [ ce; cc ] (cps env d.T.d_body (fun v -> Term.app (Term.var cc) [ v ]))
    end
  in
  { c_name = d.T.d_name; c_tml = tml; c_is_fun = d.T.d_is_fun; c_prov = [] }

type env = genv

let env_create ~mode = { mode; global_ids = Hashtbl.create 64 }
let lower_defs genv tdefs = List.map (lower_def genv) tdefs

let lower_main genv main =
  let ce = Ident.fresh ~sort:Cont "ce" in
  let cc = Ident.fresh ~sort:Cont "cc" in
  let env = { genv; locals = []; ce } in
  Term.abs [ ce; cc ] (cps env main (fun v -> Term.app (Term.var cc) [ v ]))

let lower_program ~mode (tprog : T.tprogram) : compiled =
  let genv = env_create ~mode in
  let c_defs = lower_defs genv tprog.T.tdefs in
  let c_main = Option.map (lower_main genv) tprog.T.tmain in
  { c_defs; c_main; c_global_ids = genv.global_ids }
