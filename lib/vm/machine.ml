open Tml_core

type st = {
  unit_code : Instr.unit_code;
  env : Value.t array;
  frame : Value.t array;
}

let operand st : Instr.operand -> Value.t = function
  | Instr.Reg r -> st.frame.(r)
  | Instr.Env e -> st.env.(e)
  | Instr.Const l -> Value.of_literal l
  | Instr.Primconst name -> Value.Primv name

let prim_cost name =
  match Prim.find name with
  | Some d -> d.Prim.base_cost
  | None -> 1

let rec exec ctx st (code : Instr.code) : Eval.outcome =
  match code with
  | Instr.Tailcall (f, args) ->
    let fv = operand st f in
    let argv = List.map (operand st) args in
    apply ctx fv argv
  | Instr.Primop (name, vals, conts) ->
    Runtime.charge ctx (prim_cost name);
    let values = List.map (operand st) vals in
    let cont_values =
      List.map
        (function
          | Instr.Cval op -> operand st op
          | Instr.Cblock (regs, code) ->
            Value.Mblock
              {
                Value.b_frame = st.frame;
                b_unit = st.unit_code;
                b_env = st.env;
                b_regs = regs;
                b_code = code;
              })
        conts
    in
    let impl = Runtime.find_impl_exn name in
    let (Runtime.Invoke (k, results)) = impl ctx values cont_values in
    apply ctx k results
  | Instr.Close (defs, rest) ->
    List.iter
      (fun { Instr.dst; fn; captures } ->
        Runtime.charge ctx (1 + Array.length captures);
        let env = Array.map (operand st) captures in
        st.frame.(dst) <- Value.Mclosure { Value.m_unit = st.unit_code; m_fn = fn; m_env = env })
      defs;
    exec ctx st rest
  | Instr.Fix (defs, rest) ->
    (* phase 1: allocate all closures with empty environments *)
    let envs =
      List.map
        (fun { Instr.dst; fn; captures } ->
          Runtime.charge ctx (1 + Array.length captures);
          let env = Array.make (Array.length captures) Value.Unit in
          st.frame.(dst) <-
            Value.Mclosure { Value.m_unit = st.unit_code; m_fn = fn; m_env = env };
          env)
        defs
    in
    (* phase 2: fill captures, which may now refer to the nest itself *)
    List.iter2
      (fun { Instr.captures; _ } env ->
        Array.iteri (fun i op -> env.(i) <- operand st op) captures)
      defs envs;
    exec ctx st rest

and apply ctx (f : Value.t) (args : Value.t list) : Eval.outcome =
  match f with
  | Value.Mclosure c when Tierup.hot c.Value.m_unit -> Tierup.run ctx c args
  | Value.Mclosure c ->
    Runtime.charge ctx (1 + List.length args);
    let func = c.Value.m_unit.Instr.funcs.(c.Value.m_fn) in
    if List.length args <> func.Instr.arity then
      Runtime.fault "machine function %s/%d applied to %d arguments" func.Instr.fn_name
        func.Instr.arity (List.length args);
    let frame = Array.make (max func.Instr.nregs 1) Value.Unit in
    List.iteri (fun i v -> frame.(i) <- v) args;
    exec ctx { unit_code = c.Value.m_unit; env = c.Value.m_env; frame } func.Instr.body
  | Value.Mblock b ->
    Runtime.charge ctx 1;
    if List.length args <> Array.length b.Value.b_regs then
      Runtime.fault "continuation block expected %d values, got %d"
        (Array.length b.Value.b_regs) (List.length args);
    List.iteri (fun i v -> b.Value.b_frame.(b.Value.b_regs.(i)) <- v) args;
    exec ctx
      { unit_code = b.Value.b_unit; env = b.Value.b_env; frame = b.Value.b_frame }
      b.Value.b_code
  | Value.Primv name -> (
    let d =
      match Prim.find name with
      | Some d -> d
      | None -> Runtime.fault "unknown primitive %S" name
    in
    Runtime.charge ctx d.Prim.base_cost;
    match d.Prim.cont_arity with
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
    | Some (Value.Func fo) ->
      (* a hot unit runs on the compiled closure tier (the [Mclosure]
         case); the tier charges identically, so step counts don't move *)
      let impl = Compile.compile_func ctx fo in
      if !Vmprof.enabled then begin
        let tier =
          match impl with
          | Value.Mclosure c when Jit.is_compiled c.Value.m_unit -> "tiered"
          | _ -> "machine"
        in
        Vmprof.note_apply ctx ~tier ~name:fo.Value.fo_name
      end;
      apply ctx impl args
    | Some _ -> Runtime.fault "%s is not applicable" (Oid.to_string oid)
    | None -> Runtime.fault "dangling function reference %s" (Oid.to_string oid))
  | Value.Halt ok -> (
    match args with
    | [ v ] -> if ok then Eval.Done v else Eval.Raised v
    | vs -> Runtime.fault "halt continuation received %d values" (List.length vs))
  | Value.Closure _ ->
    Runtime.fault "cannot apply a tree closure on the abstract machine"
  | v -> Runtime.fault "cannot apply %s" (Value.type_name v)

let protect ctx f =
  let saved = ctx.Runtime.subcall in
  let restore () = ctx.Runtime.subcall <- saved in
  (ctx.Runtime.subcall <-
     (fun fv args ->
       match apply ctx fv (args @ [ Value.Halt false; Value.Halt true ]) with
       | Eval.Done v -> Ok v
       | Eval.Raised v -> Error v
       | Eval.No_fuel -> raise Runtime.Fuel_exhausted
       | Eval.Fault msg -> raise (Runtime.Fault msg)));
  match f () with
  | outcome ->
    restore ();
    outcome
  | exception Runtime.Fuel_exhausted ->
    restore ();
    Eval.No_fuel
  | exception Runtime.Fault msg ->
    restore ();
    Eval.Fault msg

let apply ctx f args = protect ctx (fun () -> apply ctx f args)

(* the compiled tier escapes here for anything it doesn't handle; the
   protected applicator converts faults raised below into outcomes,
   which propagate unchanged through compiled frames to the caller *)
let () = Jit.escape_apply := apply

let run_proc ctx proc args =
  let steps0 = ctx.Runtime.steps in
  let outcome = apply ctx proc (args @ [ Value.Halt false; Value.Halt true ]) in
  if !Vmprof.enabled then Vmprof.flush ctx;
  Tml_obs.Events.vm_run ~engine:"machine" ~steps:(ctx.Runtime.steps - steps0);
  outcome

let run_abs ctx abs args =
  let unit_code, frees = Compile.compile_abs ~name:"main" abs in
  (match frees with
  | [] -> ()
  | id :: _ -> Runtime.fault "run_abs: unbound free identifier %s" (Ident.to_string id));
  let clo =
    Value.Mclosure { Value.m_unit = unit_code; m_fn = unit_code.Instr.entry; m_env = [||] }
  in
  run_proc ctx clo args
