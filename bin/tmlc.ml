(* tmlc — the TL/TML command-line driver.

   Subcommands:
     tmlc check FILE          type-check only
     tmlc dump FILE           print the TML of every definition
     tmlc run FILE            compile, link and execute
     tmlc disasm FILE         abstract machine code of every definition
     tmlc stanford [NAME..]   run the Stanford suite
     tmlc save FILE IMG       run FILE, save the resulting store image
     tmlc exec IMG FUNC [INT..]  load an image and call a function *)

open Tml_core
open Tml_vm
open Tml_frontend
open Cmdliner

let () = Tml_query.Qprims.install ()

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* program output, terminated *)
let print_output out =
  print_string out;
  if out <> "" && out.[String.length out - 1] <> '\n' then print_newline ()

let options_of ?(no_analysis = false) ~direct ~static_opt () =
  if no_analysis then Tml_analysis.Bridge.enabled := false;
  let tune = Tml_analysis.Bridge.with_analysis in
  {
    Link.default_options with
    mode = (if direct then Lower.Direct else Lower.Library);
    static_opt =
      (match static_opt with
      | 0 -> None
      | 1 -> Some (tune Optimizer.o1)
      | 2 -> Some (tune Optimizer.o2)
      | _ -> Some (tune Optimizer.o3));
  }

(* [--profile]: run [f] with the optimizer profiler on, then print the
   metrics registry's report, as tmlsh :stats does (also on error): the
   optimizer's pass timings, its per-rule fires, the tier's counters and
   the GC's *)
let with_profile profile f =
  if not profile then f ()
  else begin
    Profile.register_metrics ();
    Tierup.register_metrics ();
    Tml_obs.Metrics.register_gc ();
    Tml_obs.Metrics.reset_all ();
    Profile.enabled := true;
    Fun.protect
      ~finally:(fun () ->
        Profile.enabled := false;
        Format.printf "%a@?" Tml_obs.Metrics.pp_report ())
      f
  end

let handle_errors f =
  try f () with
  | Lexer.Lex_error (pos, msg) ->
    Format.eprintf "lexical error at %a: %s@." Ast.pp_pos pos msg;
    exit 1
  | Parser.Parse_error (pos, msg) ->
    Format.eprintf "syntax error at %a: %s@." Ast.pp_pos pos msg;
    exit 1
  | Typecheck.Type_error (pos, msg) ->
    Format.eprintf "type error at %a: %s@." Ast.pp_pos pos msg;
    exit 1
  | Runtime.Fault msg ->
    Format.eprintf "runtime fault: %s@." msg;
    exit 1

(* ---- common arguments ---- *)

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let direct_arg =
  Arg.(value & flag & info [ "direct" ] ~doc:"Emit primitives inline instead of library calls.")

let opt_arg =
  Arg.(
    value & opt int 0
    & info [ "O" ] ~docv:"LEVEL" ~doc:"Static optimization level (0-3) applied per definition.")

let fno_analysis_arg =
  Arg.(
    value & flag
    & info [ "fno-analysis" ]
        ~doc:
          "Disable the effect-analysis bridge: no effect-based rewrite rules \
           or inlining bonus, and no analysis-gated selection hoisting or \
           effect summaries in the reflective optimizer.  The alias check \
           of the constant-selection rule is a soundness precondition and \
           stays on.")

let fno_jit_arg =
  Arg.(
    value & flag
    & info [ "fno-jit" ]
        ~doc:
          "Disable tiered execution: hot stored functions are never promoted \
           to the compiled closure tier and every call runs on the bytecode \
           machine.  Promotion does not change results or abstract \
           instruction counts, only wall-clock time.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print the metrics report after the command: per-pass optimizer \
           wall-clock timings, rule-fire counters and the tier's counters.")

let dynamic_arg =
  Arg.(
    value & flag
    & info [ "dynamic" ] ~doc:"Reflectively optimize the whole program after linking.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Record optimization provenance and print each definition's \
           derivation log (rule, site, enabling fact, size and cost deltas). \
           Implies -O 2 when no level is given.")

(* [--explain] support: provenance recording on, and a useful default
   optimization level so there is a derivation to show *)
let with_explain explain opt_level =
  if explain then Tml_obs.Provenance.enabled := true;
  if explain && opt_level = 0 then 2 else opt_level

let print_derivation name prov =
  Format.printf "=== %s: %a@.@." name Tml_obs.Provenance.pp prov

let engine_arg =
  Arg.(
    value
    & opt (enum [ "machine", `Machine; "tree", `Tree ]) `Machine
    & info [ "engine" ] ~docv:"ENGINE" ~doc:"Execution engine: machine or tree.")

(* ---- check ---- *)

let check_cmd =
  let run file =
    handle_errors (fun () ->
        let program = Parser.parse_program (read_file file) in
        let tprog = Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) program in
        Printf.printf "%s: %d definitions type-check\n" file (List.length tprog.Typecheck.tdefs))
  in
  Cmd.v (Cmd.info "check" ~doc:"Type-check a TL source file")
    Term.(const run $ file_arg)

(* ---- dump ---- *)

let dump_cmd =
  let run file direct opt_level no_analysis profile explain name =
    handle_errors (fun () ->
        let opt_level = with_explain explain opt_level in
        let compiled =
          with_profile profile (fun () ->
              Link.compile
                ~options:
                  (options_of ~no_analysis ~direct ~static_opt:opt_level ())
                (read_file file))
        in
        let dump (d : Lower.compiled_def) =
          Format.printf "=== %s ===@.%a@.@." d.Lower.c_name Pp.pp_value d.Lower.c_tml;
          if explain then
            Format.printf "%s: %a@.@." d.Lower.c_name Tml_obs.Provenance.pp d.Lower.c_prov
        in
        (match name with
        | Some n ->
          (match
             List.find_opt (fun d -> d.Lower.c_name = n) compiled.Lower.c_defs
           with
          | Some d -> dump d
          | None ->
            Format.eprintf "no definition named %s@." n;
            exit 1)
        | None ->
          List.iter dump compiled.Lower.c_defs;
          Option.iter
            (fun m -> Format.printf "=== main ===@.%a@.@." Pp.pp_value m)
            compiled.Lower.c_main))
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "def" ] ~docv:"NAME" ~doc:"Dump only this definition.")
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print the TML intermediate representation")
    Term.(
      const run $ file_arg $ direct_arg $ opt_arg $ fno_analysis_arg $ profile_arg $ explain_arg
      $ name_arg)

(* ---- disasm ---- *)

let disasm_cmd =
  let run file direct opt_level no_analysis profile name =
    handle_errors (fun () ->
        let program =
          with_profile profile (fun () ->
              Link.load
                ~options:
                  (options_of ~no_analysis ~direct ~static_opt:opt_level ())
                (read_file file))
        in
        let ctx = program.Link.ctx in
        let dump (fname, oid) =
          match Value.Heap.get ctx.Runtime.heap oid with
          | Value.Func fo ->
            ignore (Compile.compile_func ctx fo);
            (match fo.Value.fo_code with
            | Some u ->
              Format.printf "=== %s (%d bytes bytecode, %d bytes PTML) ===@.%a@." fname
                (String.length (Instr.encode_unit u))
                (String.length fo.Value.fo_ptml)
                Instr.pp_unit u
            | None -> Format.printf "=== %s: primitive ===@." fname)
          | _ -> ()
        in
        match name with
        | Some n -> dump (n, Link.function_oid program n)
        | None -> List.iter dump program.Link.func_oids)
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "def" ] ~docv:"NAME" ~doc:"Disassemble only this definition.")
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print abstract machine code")
    Term.(
      const run $ file_arg $ direct_arg $ opt_arg $ fno_analysis_arg $ profile_arg $ name_arg)

(* ---- run ---- *)

let run_cmd =
  let run file direct opt_level no_analysis no_jit profile dynamic engine explain =
    handle_errors (fun () ->
        Tierup.enabled := not no_jit;
        let opt_level = with_explain explain opt_level in
        let program, outcome, steps =
          with_profile profile (fun () ->
              let program =
                Link.load
                  ~options:
                    (options_of ~no_analysis ~direct ~static_opt:opt_level ())
                  (read_file file)
              in
              if dynamic then
                Tml_reflect.Reflect.optimize_all program.Link.ctx
                  (Link.all_function_oids program);
              let outcome, steps = Link.run_main program ~engine () in
              program, outcome, steps)
        in
        print_output (Link.output program);
        Format.printf "-- %a, %d abstract instructions@." Eval.pp_outcome outcome steps;
        if explain then begin
          List.iter
            (fun (d : Lower.compiled_def) -> print_derivation d.Lower.c_name d.Lower.c_prov)
            program.Link.compiled.Lower.c_defs;
          if dynamic then
            List.iter
              (fun (name, oid) ->
                match Tml_reflect.Reflect.provenance program.Link.ctx oid with
                | Some prov -> print_derivation (name ^ " [reflective]") prov
                | None -> ())
              program.Link.func_oids
        end;
        match outcome with
        | Eval.Done _ -> ()
        | _ -> exit 1)
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile, link and execute a TL program")
    Term.(
      const run $ file_arg $ direct_arg $ opt_arg $ fno_analysis_arg $ fno_jit_arg $ profile_arg
      $ dynamic_arg $ engine_arg $ explain_arg)

(* ---- stanford ---- *)

let stanford_cmd =
  let run names =
    handle_errors (fun () ->
        let names = if names = [] then Tml_stanford.Suite.all_names else names in
        Printf.printf "%-8s %12s %12s %12s %12s %9s\n" "bench" "unopt" "static" "dynamic"
          "direct" "dyn/stat";
        List.iter
          (fun name ->
            let steps =
              List.map
                (fun level ->
                  let r = Tml_stanford.Suite.run name level in
                  Tml_stanford.Suite.level_name level, r.Tml_stanford.Suite.steps)
                Tml_stanford.Suite.levels
            in
            let s l = List.assoc l steps in
            Printf.printf "%-8s %12d %12d %12d %12d %9.2f\n%!" name (s "unopt") (s "static")
              (s "dynamic") (s "direct")
              (float_of_int (s "static") /. float_of_int (s "dynamic")))
          names)
  in
  let names_arg = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
  Cmd.v (Cmd.info "stanford" ~doc:"Run the Stanford benchmark suite")
    Term.(const run $ names_arg)

(* ---- save / exec (persistence) ---- *)

let save_cmd =
  let run file img =
    handle_errors (fun () ->
        let program = Link.load (read_file file) in
        let outcome, _ = Link.run_main program ~engine:`Machine () in
        print_output (Link.output program);
        (match outcome with
        | Eval.Done _ -> ()
        | o ->
          Format.eprintf "main failed: %a@." Eval.pp_outcome o;
          exit 1);
        Image.save_file program.Link.ctx.Runtime.heap img;
        Printf.printf "-- store image written to %s\n" img)
  in
  let img_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"IMAGE") in
  Cmd.v (Cmd.info "save" ~doc:"Run a program and save its store image")
    Term.(const run $ file_arg $ img_arg)

let exec_cmd =
  let run img func args engine =
    handle_errors (fun () ->
        let heap = Image.load_file img in
        let ctx = Runtime.create heap in
        (* find the function object by name *)
        let target = ref None in
        Value.Heap.iter
          (fun oid obj ->
            match obj with
            | Value.Func fo when fo.Value.fo_name = func -> target := Some oid
            | _ -> ())
          heap;
        match !target with
        | None ->
          Format.eprintf "no function named %s in the image@." func;
          exit 1
        | Some oid ->
          let argv = List.map (fun i -> Value.Int i) args in
          let outcome =
            match engine with
            | `Machine -> Machine.run_proc ctx (Value.Oidv oid) argv
            | `Tree -> Eval.run_proc ctx (Value.Oidv oid) argv
          in
          print_output (Buffer.contents ctx.Runtime.out);
          Format.printf "-- %a, %d abstract instructions@." Eval.pp_outcome outcome
            ctx.Runtime.steps)
  in
  let img_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE") in
  let func_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FUNCTION") in
  let args_arg = Arg.(value & pos_right 1 int [] & info [] ~docv:"INT") in
  Cmd.v (Cmd.info "exec" ~doc:"Load a store image and call a function")
    Term.(const run $ img_arg $ func_arg $ args_arg $ engine_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "tmlc" ~version:"1.0.0"
       ~doc:"TL compiler and TML optimizer driver (Tycoon reproduction)")
    [ check_cmd; dump_cmd; disasm_cmd; run_cmd; stanford_cmd; save_cmd; exec_cmd ]

let () = exit (Cmd.eval main_cmd)
