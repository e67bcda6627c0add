(* tmllint — static diagnostics for TL sources and PTML store images.

   TL-level diagnostics come from a scope-tracking walk of the typed tree
   (unused and shadowed bindings, discarded non-unit results, branches
   dead after reduction); TML-level diagnostics come from the effect,
   alias and escape analysis of [Tml_analysis] applied to the lowered
   definitions (writes through a selection the optimizer would otherwise
   assume constant, dead bindings that reduction will delete).

     tmllint FILE.tl ...        lint TL source files
     tmllint --stdlib           lint the TL standard library
     tmllint --image IMG        lint the functions of a store image
     tmllint --rules            audit the registered rewrite-rule set
     tmllint --json             machine-readable output
     tmllint --strict           exit nonzero when any diagnostic fired *)

open Tml_core
open Tml_vm
open Tml_frontend
open Cmdliner

(* [open Cmdliner] shadows the IR module *)
module Term = Tml_core.Term

let () = Tml_query.Qprims.install ()

type diag = {
  d_file : string;
  d_line : int;
  d_col : int;
  d_class : string;
  d_msg : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* TL-level walk                                                       *)
(* ------------------------------------------------------------------ *)

(* does [name] occur (read or assigned) in [e]?  Deliberately ignores
   shadowing: a shadowed inner use suppresses the unused warning, which
   only under-reports. *)
let rec uses name (e : Typecheck.texpr) =
  let open Typecheck in
  match e.tdesc with
  | Tlocal n | Tmutable n -> n = name
  | Tassign (n, rhs) -> n = name || uses name rhs
  | Tunit_ | Tbool_ _ | Tint_ _ | Treal_ _ | Tchar_ _ | Tstr_ _ | Tglobal _ -> false
  | Tcall (f, args) -> uses name f || List.exists (uses name) args
  | Tbinop (_, a, b) | Tseq (a, b) | Twhile (a, b) | Tarraylit (a, b) | Tindex (a, b) ->
    uses name a || uses name b
  | Tunop (_, a) | Traise a | Tfield (a, _) -> uses name a
  | Tif (c, t, f) -> uses name c || uses name t || Option.fold ~none:false ~some:(uses name) f
  | Tlet (_, rhs, body) | Tvardef (_, rhs, body) -> uses name rhs || uses name body
  | Tfor (_, lo, _, hi, body) -> uses name lo || uses name hi || uses name body
  | Tfn (_, _, body) -> uses name body
  | Tstore (a, b, c) -> uses name a || uses name b || uses name c
  | Ttuple_ es -> List.exists (uses name) es
  | Ttry (a, _, b) | Texists (_, a, b) | Tforeach (_, a, b) -> uses name a || uses name b
  | Tprimcall (_, es) | Tccall (_, es) | Tbuiltin (_, es) -> List.exists (uses name) es
  | Tselect { ttarget; trel; twhere; _ } ->
    uses name ttarget || uses name trel || uses name twhere

let lint_texpr ~file ~scope diags (top : Typecheck.texpr) =
  let open Typecheck in
  let add (pos : Ast.pos) cls msg =
    diags :=
      { d_file = file; d_line = pos.Ast.line; d_col = pos.Ast.col; d_class = cls; d_msg = msg }
      :: !diags
  in
  let binder pos ~kind ~scope name body =
    if name <> "_" && not (uses name body) then
      add pos "unused-binding" (Printf.sprintf "%s %s is never used" kind name);
    if List.mem name scope then
      add pos "shadowed-binding"
        (Printf.sprintf "%s %s shadows an earlier binding of the same name" kind name)
  in
  let rec go scope (e : texpr) =
    match e.tdesc with
    | Tunit_ | Tbool_ _ | Tint_ _ | Treal_ _ | Tchar_ _ | Tstr_ _ | Tlocal _ | Tmutable _
    | Tglobal _ -> ()
    | Tcall (f, args) ->
      go scope f;
      List.iter (go scope) args
    | Tbinop (_, a, b) | Tarraylit (a, b) | Tindex (a, b) ->
      go scope a;
      go scope b
    | Tunop (_, a) | Traise a | Tfield (a, _) | Tassign (_, a) -> go scope a
    | Tif (c, t, f) ->
      (match c.tdesc with
      | Tbool_ b ->
        add c.tpos "dead-code"
          (Printf.sprintf "condition is constantly %b; the %s branch is unreachable after reduction"
             b
             (if b then "else" else "then"))
      | _ -> ());
      go scope c;
      go scope t;
      Option.iter (go scope) f
    | Tlet (x, rhs, body) | Tvardef (x, rhs, body) ->
      binder e.tpos ~kind:"binding" ~scope x body;
      go scope rhs;
      go (x :: scope) body
    | Tseq (a, b) ->
      (match a.tty with
      | Ast.Tunit | Ast.Tany -> ()
      | ty ->
        add a.tpos "discarded-result"
          (Printf.sprintf "expression result of type %s is discarded" (Ast.ty_to_string ty)));
      go scope a;
      go scope b
    | Twhile (c, body) ->
      (match c.tdesc with
      | Tbool_ false -> add c.tpos "dead-code" "loop condition is constantly false; the body is unreachable"
      | _ -> ());
      go scope c;
      go scope body
    | Tfor (x, lo, _, hi, body) ->
      binder e.tpos ~kind:"loop variable" ~scope x body;
      go scope lo;
      go scope hi;
      go (x :: scope) body
    | Tfn (params, _, body) ->
      List.iter (fun (p, _) -> binder e.tpos ~kind:"parameter" ~scope p body) params;
      go (List.map fst params @ scope) body
    | Tstore (a, b, c) ->
      go scope a;
      go scope b;
      go scope c
    | Ttuple_ es | Tprimcall (_, es) | Tccall (_, es) | Tbuiltin (_, es) ->
      List.iter (go scope) es
    | Ttry (a, x, b) ->
      (* the handler binder is exempt from unused-binding: ignoring the
         raised value is the normal idiom *)
      go scope a;
      go (x :: scope) b
    | Tselect { ttarget; tx; trel; twhere } ->
      if tx <> "_" && not (uses tx ttarget) && not (uses tx twhere) then
        add e.tpos "unused-binding"
          (Printf.sprintf "range variable %s is never used" tx)
      else if List.mem tx scope then
        add e.tpos "shadowed-binding"
          (Printf.sprintf "range variable %s shadows an earlier binding of the same name" tx);
      go scope trel;
      go (tx :: scope) ttarget;
      go (tx :: scope) twhere
    | Texists (x, r, p) ->
      binder e.tpos ~kind:"range variable" ~scope x p;
      go scope r;
      go (x :: scope) p
    | Tforeach (x, r, body) ->
      binder e.tpos ~kind:"loop variable" ~scope x body;
      go scope r;
      go (x :: scope) body
  in
  go scope top

(* ------------------------------------------------------------------ *)
(* TML-level diagnostics (analysis-backed)                             *)
(* ------------------------------------------------------------------ *)

(* a constant-true selection whose continuation region fails BOTH alias
   gates: the alias would be observable — somebody writes a relation the
   selection result is assumed to be a constant copy of — so the optimizer
   must keep the (linear-time) copy *)
let aliased_mutation_sites (v : Term.value) =
  let hits = ref 0 in
  let check (a : Term.app) =
    match a.Term.func, a.Term.args with
    | Term.Prim "select", [ Term.Abs p; _r; _ce; Term.Abs { Term.params = [ tmp ]; body } ]
      -> (
      match p.Term.params, p.Term.body with
      | ( [ _x; _pce; pcc ],
          { Term.func = Term.Var cc'; args = [ Term.Lit (Literal.Bool true) ] } )
        when Ident.equal pcc cc' ->
        if not (Tml_analysis.Alias.select_alias_ok ~tmp body) then incr hits
      | _ -> ())
    | _ -> ()
  in
  (match v with
  | Term.Abs f -> Term.iter_apps check f.Term.body
  | _ -> ());
  !hits

(* β-bound value parameters that are never used and whose argument the
   analysis knows to be removable: reduction will delete the binding *)
let dead_binding_sites (v : Term.value) =
  let hits = ref 0 in
  let check (a : Term.app) =
    match a.Term.func with
    | Term.Abs f when List.length f.Term.params = List.length a.Term.args ->
      List.iter2
        (fun p arg ->
          match arg with
          | (Term.Lit _ | Term.Abs _)
            when (not (Ident.is_cont p)) && not (Occurs.occurs_app p f.Term.body) ->
            incr hits
          | _ -> ())
        f.Term.params a.Term.args
    | _ -> ()
  in
  (match v with
  | Term.Abs f -> Term.iter_apps check f.Term.body
  | _ -> ());
  !hits

let lint_tml ~file ~pos_of diags name (v : Term.value) =
  let add cls msg =
    let line, col = pos_of name in
    diags := { d_file = file; d_line = line; d_col = col; d_class = cls; d_msg = msg } :: !diags
  in
  let alias = aliased_mutation_sites v in
  if alias > 0 then
    add "aliased-mutation"
      (Printf.sprintf
         "%s: %d constant-true selection(s) whose result may be written through; the optimizer \
          keeps the copy"
         name alias);
  let dead = dead_binding_sites v in
  if dead > 0 then
    add "dead-code" (Printf.sprintf "%s: %d dead binding(s) deleted by reduction" name dead)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let prelude_len =
  lazy
    (List.length
       (Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) []).Typecheck.tdefs)

let rec drop n xs = if n = 0 then xs else drop (n - 1) (List.tl xs)

let lint_source ~file ~src diags =
  let program = Parser.parse_program src in
  let tprog = Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) program in
  let own = drop (Lazy.force prelude_len) tprog.Typecheck.tdefs in
  (* TL level: own definitions and the main expression *)
  List.iter
    (fun (d : Typecheck.tdef) ->
      lint_texpr ~file ~scope:(List.map fst d.Typecheck.d_params) diags d.Typecheck.d_body)
    own;
  Option.iter (fun m -> lint_texpr ~file ~scope:[] diags m) tprog.Typecheck.tmain;
  (* TML level: lower everything (stdlib included, for cross-module
     references), report on own definitions and main *)
  let env = Lower.env_create ~mode:Lower.Library in
  let cdefs = Lower.lower_defs env tprog.Typecheck.tdefs in
  let own_names = List.map (fun (d : Typecheck.tdef) -> d.Typecheck.d_name) own in
  let pos_table = Hashtbl.create 16 in
  List.iter
    (fun (d : Typecheck.tdef) ->
      Hashtbl.replace pos_table d.Typecheck.d_name
        (d.Typecheck.d_body.Typecheck.tpos.Ast.line, d.Typecheck.d_body.Typecheck.tpos.Ast.col))
    own;
  let pos_of name = Option.value (Hashtbl.find_opt pos_table name) ~default:(0, 0) in
  List.iter
    (fun (d : Lower.compiled_def) ->
      if List.mem d.Lower.c_name own_names then
        lint_tml ~file ~pos_of diags d.Lower.c_name d.Lower.c_tml)
    cdefs;
  Option.iter
    (fun m -> lint_tml ~file ~pos_of diags "main" (Lower.lower_main env m))
    tprog.Typecheck.tmain

let lint_stdlib diags =
  let file = "<stdlib>" in
  let tprog = Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) [] in
  List.iter
    (fun (d : Typecheck.tdef) ->
      lint_texpr ~file ~scope:(List.map fst d.Typecheck.d_params) diags d.Typecheck.d_body)
    tprog.Typecheck.tdefs;
  let env = Lower.env_create ~mode:Lower.Library in
  let cdefs = Lower.lower_defs env tprog.Typecheck.tdefs in
  let pos_of _ = 0, 0 in
  List.iter
    (fun (d : Lower.compiled_def) -> lint_tml ~file ~pos_of diags d.Lower.c_name d.Lower.c_tml)
    cdefs

let lint_image ~file diags =
  let heap = Image.load_file file in
  let pos_of _ = 0, 0 in
  Value.Heap.iter
    (fun _oid obj ->
      match obj with
      | Value.Func fo ->
        let tml = Tml_store.Ptml.decode_value fo.Value.fo_ptml in
        lint_tml ~file ~pos_of diags fo.Value.fo_name tml
      | _ -> ())
    heap

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_quote = Tml_obs.Json.quote

let print_diags ~json diags =
  let diags =
    List.sort
      (fun a b ->
        match compare a.d_file b.d_file with
        | 0 -> compare (a.d_line, a.d_col) (b.d_line, b.d_col)
        | n -> n)
      diags
  in
  if json then begin
    print_string "[";
    List.iteri
      (fun i d ->
        if i > 0 then print_string ",";
        Printf.printf "{\"file\":%s,\"line\":%d,\"col\":%d,\"class\":\"%s\",\"message\":%s}"
          (json_quote d.d_file) d.d_line d.d_col d.d_class (json_quote d.d_msg))
      diags;
    print_endline "]"
  end
  else
    List.iter
      (fun d ->
        Printf.printf "%s:%d:%d: [%s] %s\n" d.d_file d.d_line d.d_col d.d_class d.d_msg)
      diags

(* ------------------------------------------------------------------ *)
(* Rule audit                                                          *)
(* ------------------------------------------------------------------ *)

(* Audit every rule the active providers registered: the static checker
   first, then (when statically clean) the derived proof obligation.  A
   rule that fails either is unverifiable, and the audit exits 2 — the
   gate the @rules test bundle runs. *)
let audit_rules ~json ~plant_unsound =
  Tml_query.Qopt.install ();
  (* referencing the module guarantees tml_reflect is linked, so its
     initializer has registered the store-aware rule descriptors *)
  ignore Tml_reflect.Reflect.rule_descriptors;
  if plant_unsound then Tml_rules.Index.register_all Tml_rules.Fixtures.all;
  let open Tml_rules in
  let results =
    List.map
      (fun (r : Dsl.rule) ->
        let errs = Check.check r in
        let obligation =
          if errs <> [] then `Skipped else `Verdict (Tml_check.Obligation.check r)
        in
        r, errs, obligation)
      (Index.registered ())
  in
  let unverifiable (_, errs, ob) =
    errs <> []
    ||
    match ob with
    | `Verdict (Tml_check.Obligation.Refuted _) -> true
    | _ -> false
  in
  let heads_of (r : Dsl.rule) =
    List.map (fun h -> Format.asprintf "%a" Dsl.pp_head h) r.Dsl.heads
  in
  let obligation_text = function
    | `Skipped -> "skipped (static errors)"
    | `Verdict v -> Format.asprintf "%a" Tml_check.Obligation.pp_verdict v
  in
  if json then begin
    print_string "[";
    List.iteri
      (fun i ((r : Dsl.rule), errs, ob) ->
        if i > 0 then print_string ",";
        Printf.printf
          "{\"name\":%s,\"fact\":%s,\"heads\":[%s],\"static\":[%s],\"obligation\":%s}"
          (json_quote r.Dsl.name) (json_quote r.Dsl.fact)
          (String.concat "," (List.map json_quote (heads_of r)))
          (String.concat "," (List.map (fun (e : Check.error) -> json_quote e.Check.what) errs))
          (json_quote (obligation_text ob)))
      results;
    print_endline "]"
  end
  else begin
    List.iter
      (fun ((r : Dsl.rule), errs, ob) ->
        Printf.printf "%-26s %-22s %s\n" r.Dsl.name
          (String.concat "," (heads_of r))
          (match errs with
          | [] -> obligation_text ob
          | errs ->
            "STATIC: "
            ^ String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) errs))
      )
      results;
    let bad = List.length (List.filter unverifiable results) in
    Printf.printf "%d rules audited, %d unverifiable\n" (List.length results) bad
  end;
  if List.exists unverifiable results then exit 2

let run files stdlib image json strict rules plant_unsound =
  if rules then audit_rules ~json ~plant_unsound
  else
  let diags = ref [] in
  let fail_with msg =
    prerr_endline msg;
    exit 1
  in
  (try
     List.iter (fun f -> lint_source ~file:f ~src:(read_file f) diags) files;
     if stdlib then lint_stdlib diags;
     Option.iter (fun img -> lint_image ~file:img diags) image
   with
  | Lexer.Lex_error (pos, msg) -> fail_with (Format.asprintf "lexical error at %a: %s" Ast.pp_pos pos msg)
  | Parser.Parse_error (pos, msg) -> fail_with (Format.asprintf "syntax error at %a: %s" Ast.pp_pos pos msg)
  | Typecheck.Type_error (pos, msg) -> fail_with (Format.asprintf "type error at %a: %s" Ast.pp_pos pos msg)
  | Sys_error msg | Failure msg -> fail_with msg);
  let diags = !diags in
  print_diags ~json diags;
  if not json then
    Printf.printf "%d diagnostic%s\n" (List.length diags) (if List.length diags = 1 then "" else "s");
  if strict && diags <> [] then exit 2

let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"FILE")

let stdlib_arg =
  Arg.(value & flag & info [ "stdlib" ] ~doc:"Lint the TL standard library.")

let image_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "image" ] ~docv:"IMG" ~doc:"Lint the function objects of a store image (PTML).")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ] ~doc:"Exit with status 2 when any diagnostic fired.")

let rules_arg =
  Arg.(
    value & flag
    & info [ "rules" ]
        ~doc:
          "Audit the registered rewrite-rule set: run the static checker and the derived \
           proof obligation of every rule; exit with status 2 when any rule is unverifiable.")

let plant_unsound_arg =
  Arg.(
    value & flag
    & info [ "plant-unsound" ]
        ~doc:
          "With $(b,--rules): also register the intentionally-unsound fixture rules before \
           auditing, to exercise the audit's rejection paths.")

let cmd =
  Cmd.v
    (Cmd.info "tmllint" ~version:"1.0.0"
       ~doc:"Static diagnostics for TL programs and TML store images")
    Cmdliner.Term.(
      const run $ files_arg $ stdlib_arg $ image_arg $ json_arg $ strict_arg $ rules_arg
      $ plant_unsound_arg)

let () = exit (Cmd.eval cmd)
