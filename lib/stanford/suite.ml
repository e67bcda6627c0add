open Tml_vm
open Tml_frontend

type level =
  | Unopt
  | Static
  | Dynamic
  | Direct

let levels = [ Unopt; Static; Dynamic; Direct ]

let level_name = function
  | Unopt -> "unopt"
  | Static -> "static"
  | Dynamic -> "dynamic"
  | Direct -> "direct"

type run_result = {
  outcome : Eval.outcome;
  steps : int;
  output : string;
}

let all_names = List.map fst Programs.all
let source name = List.assoc name Programs.all

let load name level =
  let src = source name in
  match level with
  | Unopt -> Link.load src
  | Static ->
    Link.load
      ~options:{ Link.default_options with static_opt = Some Tml_core.Optimizer.o2 }
      src
  | Direct -> Link.load ~options:{ Link.default_options with mode = Lower.Direct } src
  | Dynamic ->
    let program = Link.load src in
    Tml_reflect.Reflect.optimize_all program.Link.ctx (Link.all_function_oids program);
    program

let run_loaded ?(engine = `Machine) (program : Link.program) =
  let before_out = String.length (Link.output program) in
  let outcome, steps = Link.run_main program ~engine () in
  let full = Link.output program in
  let output = String.sub full before_out (String.length full - before_out) in
  { outcome; steps; output }

let run ?engine name level = run_loaded ?engine (load name level)

type size_report = {
  bytecode_bytes : int;
  ptml_bytes : int;
  functions : int;
}

let code_size (program : Link.program) =
  let ctx = program.Link.ctx in
  let bytecode = ref 0 and ptml = ref 0 and functions = ref 0 in
  List.iter
    (fun oid ->
      match Value.Heap.get_opt ctx.Runtime.heap oid with
      | Some (Value.Func fo) -> (
        incr functions;
        ptml := !ptml + String.length fo.Value.fo_ptml;
        ignore (Compile.compile_func ctx fo);
        match fo.Value.fo_code with
        | Some unit_code -> bytecode := !bytecode + String.length (Instr.encode_unit unit_code)
        | None ->
          (* η-reduced to a bare primitive: count its name *)
          bytecode := !bytecode + 8)
      | _ -> ())
    (Link.all_function_oids program);
  { bytecode_bytes = !bytecode; ptml_bytes = !ptml; functions = !functions }
