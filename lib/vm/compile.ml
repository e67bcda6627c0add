open Tml_core

let fail fmt = Format.kasprintf failwith fmt

(* Continuation argument positions that escape into data structures and must
   therefore be materialized as closures rather than inline blocks. *)
let escaping_cont_positions = function
  | "pushHandler" -> [ 0 ]
  | _ -> []

type state = {
  mutable funcs : Instr.func option array;
  mutable count : int;
}

let reserve st =
  if st.count >= Array.length st.funcs then begin
    let bigger = Array.make (max 8 (2 * Array.length st.funcs)) None in
    Array.blit st.funcs 0 bigger 0 st.count;
    st.funcs <- bigger
  end;
  let ix = st.count in
  st.count <- ix + 1;
  ix

type frame = {
  mutable map : Instr.operand Ident.Map.t;
  mutable nregs : int;
}

let fresh_reg frame =
  let r = frame.nregs in
  frame.nregs <- r + 1;
  r

let bind frame id op = frame.map <- Ident.Map.add id op frame.map

let operand frame (v : Term.value) : Instr.operand =
  match v with
  | Term.Lit l -> Instr.Const l
  | Term.Prim name -> Instr.Primconst name
  | Term.Var id -> (
    match Ident.Map.find_opt id frame.map with
    | Some op -> op
    | None -> fail "Compile: unbound identifier %s" (Ident.to_string id))
  | Term.Abs _ -> fail "Compile.operand: abstraction needs a closure"

let rec comp_fn st name (abs : Term.abs) : int * Ident.t list =
  let frees = Ident.Set.elements (Term.free_vars_value (Term.Abs abs)) in
  let frame = { map = Ident.Map.empty; nregs = 0 } in
  List.iteri (fun i p -> bind frame p (Instr.Reg i)) abs.Term.params;
  frame.nregs <- List.length abs.Term.params;
  List.iteri (fun j id -> bind frame id (Instr.Env j)) frees;
  (* Reserve the slot before compiling the body: nested functions are
     appended while this one is being built. *)
  let ix = reserve st in
  let body = comp_app st frame abs.Term.body in
  st.funcs.(ix) <-
    Some
      { Instr.fn_name = name; arity = List.length abs.Term.params; nregs = frame.nregs; body };
  ix, frees

(* Prepare a list of argument values: abstractions are compiled to closures
   allocated just before the instruction that uses them. *)
and prepare st frame (vs : Term.value list) : Instr.closdef list * Instr.operand list =
  let defs = ref [] in
  let ops =
    List.map
      (fun v ->
        match v with
        | Term.Abs a ->
          let fn, frees = comp_fn st "anon" a in
          let captures = Array.of_list (List.map (fun id -> operand frame (Term.Var id)) frees) in
          let dst = fresh_reg frame in
          defs := { Instr.dst; fn; captures } :: !defs;
          Instr.Reg dst
        | _ -> operand frame v)
      vs
  in
  List.rev !defs, ops

and with_closures defs code = if defs = [] then code else Instr.Close (defs, code)

and comp_app st frame (a : Term.app) : Instr.code =
  match a.Term.func with
  | Term.Prim "Y" -> comp_y st frame a
  | Term.Prim name -> comp_prim st frame name a
  | Term.Abs f ->
    (* β-redex kept by the optimizer: parameters alias their arguments. *)
    if List.length f.Term.params <> List.length a.Term.args then
      fail "Compile: β-redex arity mismatch";
    let defs = ref [] in
    List.iter2
      (fun p arg ->
        match arg with
        | Term.Abs ab ->
          let fn, frees = comp_fn st (Ident.to_string p) ab in
          let captures =
            Array.of_list (List.map (fun id -> operand frame (Term.Var id)) frees)
          in
          let dst = fresh_reg frame in
          defs := { Instr.dst; fn; captures } :: !defs;
          bind frame p (Instr.Reg dst)
        | _ -> bind frame p (operand frame arg))
      f.Term.params a.Term.args;
    with_closures (List.rev !defs) (comp_app st frame f.Term.body)
  | (Term.Var _ | Term.Lit _) as func ->
    let defs, ops = prepare st frame (func :: a.Term.args) in
    (match ops with
    | f :: args -> with_closures defs (Instr.Tailcall (f, args))
    | [] -> assert false)

and comp_prim st frame name (a : Term.app) : Instr.code =
  (* split arguments into values and continuations using the static shape *)
  let values, conts =
    match name with
    | "==" -> (
      match Primitives.case_split a.Term.args with
      | Some (scrutinee, tags, branches, default) ->
        ( scrutinee :: tags,
          branches
          @ (match default with
            | Some d -> [ d ]
            | None -> []) )
      | None -> fail "Compile: malformed == application")
    | _ -> (
      match Prim.find name with
      | Some { Prim.cont_arity = Some nc; _ } ->
        let total = List.length a.Term.args in
        if total < nc then fail "Compile: %s: missing continuations" name;
        let rec split i acc = function
          | rest when i = total - nc -> List.rev acc, rest
          | x :: rest -> split (i + 1) (x :: acc) rest
          | [] -> assert false
        in
        split 0 [] a.Term.args
      | Some { Prim.cont_arity = None; _ } -> fail "Compile: %s: unknown shape" name
      | None -> fail "Compile: unknown primitive %S" name)
  in
  let escaping = escaping_cont_positions name in
  let defs, valops = prepare st frame values in
  let extra_defs = ref [] in
  let specs =
    List.mapi
      (fun i c ->
        match c with
        | Term.Abs ab when not (List.mem i escaping) ->
          (* inline block: the continuation's parameters get fresh registers
             of the current frame *)
          let regs = Array.of_list (List.map (fun _ -> fresh_reg frame) ab.Term.params) in
          List.iteri (fun j p -> bind frame p (Instr.Reg regs.(j))) ab.Term.params;
          let code = comp_app st frame ab.Term.body in
          Instr.Cblock (regs, code)
        | Term.Abs ab ->
          let fn, frees = comp_fn st (name ^ "-handler") ab in
          let captures =
            Array.of_list (List.map (fun id -> operand frame (Term.Var id)) frees)
          in
          let dst = fresh_reg frame in
          extra_defs := { Instr.dst; fn; captures } :: !extra_defs;
          Instr.Cval (Instr.Reg dst)
        | other -> Instr.Cval (operand frame other))
      conts
  in
  with_closures (defs @ List.rev !extra_defs) (Instr.Primop (name, valops, specs))

and comp_y st frame (a : Term.app) : Instr.code =
  match a.Term.args with
  | [ binder ] -> (
    match Primitives.y_split binder with
    | Some (c0, vs, _c, k0, abss) ->
      (* allocate destination registers for the whole nest first, so that
         the members' captures can refer to each other *)
      let members = (c0, k0) :: List.combine vs abss in
      let with_regs =
        List.map
          (fun (v, abs_v) ->
            let dst = fresh_reg frame in
            bind frame v (Instr.Reg dst);
            v, abs_v, dst)
          members
      in
      let defs =
        List.map
          (fun (v, abs_v, dst) ->
            match abs_v with
            | Term.Abs ab ->
              let fn, frees = comp_fn st (Ident.to_string v) ab in
              let captures =
                Array.of_list (List.map (fun id -> operand frame (Term.Var id)) frees)
              in
              { Instr.dst; fn; captures }
            | _ -> fail "Compile: Y nest member is not an abstraction")
          with_regs
      in
      let entry =
        match with_regs with
        | (_, _, dst) :: _ -> dst
        | [] -> assert false
      in
      Instr.Fix (defs, Instr.Tailcall (Instr.Reg entry, []))
    | None -> fail "Compile: malformed Y application")
  | _ -> fail "Compile: Y expects one argument"

let compile_abs ~name (abs : Term.abs) : Instr.unit_code * Ident.t list =
  Runtime.install ();
  let st = { funcs = Array.make 8 None; count = 0 } in
  let entry, frees = comp_fn st name abs in
  let funcs =
    Array.init st.count (fun i ->
        match st.funcs.(i) with
        | Some f -> f
        | None -> fail "Compile: unfinished function slot %d" i)
  in
  Instr.make_unit funcs entry, frees

let compile_func _ctx (fo : Value.func_obj) : Value.t =
  match fo.Value.fo_mach_impl with
  | Some impl -> impl
  | None ->
    let impl =
      match fo.Value.fo_tml with
      | Term.Prim name ->
        (* η-reduction can leave a bare primitive as the whole function *)
        Value.Primv name
      | Term.Lit l -> Value.of_literal l
      | Term.Var _ ->
        Runtime.fault "function object %s is an unbound variable" fo.Value.fo_name
      | Term.Abs abs ->
        let unit_code, frees =
          match fo.Value.fo_code with
          | Some u ->
            (* recompute layout deterministically *)
            u, Ident.Set.elements (Term.free_vars_value fo.Value.fo_tml)
          | None -> compile_abs ~name:fo.Value.fo_name abs
        in
        fo.Value.fo_code <- Some unit_code;
        let env =
          Array.of_list
            (List.map
               (fun id ->
                 match List.find_opt (fun (b, _) -> Ident.equal b id) fo.Value.fo_bindings with
                 | Some (_, v) -> v
                 | None ->
                   Runtime.fault "function %s: unlinked free identifier %s" fo.Value.fo_name
                     (Ident.to_string id))
               frees)
        in
        Value.Mclosure { Value.m_unit = unit_code; m_fn = unit_code.Instr.entry; m_env = env }
    in
    fo.Value.fo_mach_impl <- Some impl;
    impl
