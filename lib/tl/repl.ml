open Tml_core
open Tml_vm

type session = {
  sctx : Runtime.ctx;
  lower_env : Lower.env;
  mutable accumulated : Ast.item list;  (* definitions only, in order *)
  mutable lowered_count : int;          (* tdefs already lowered and linked *)
  globals : (string, Value.t) Hashtbl.t;
  mutable funcs : (string * Oid.t) list;  (* link order *)
  mutable src_log : string list;  (* definition sources, reverse order *)
}

let ctx session = session.sctx
let function_oids session = session.funcs
let function_oid session name = List.assoc_opt name session.funcs
let global session name = Hashtbl.find_opt session.globals name

let lookup_tml session name =
  match function_oid session name with
  | Some oid -> (
    match Value.Heap.get_opt session.sctx.Runtime.heap oid with
    | Some (Value.Func fo) -> Some fo.Value.fo_tml
    | _ -> None)
  | None -> None

type feed_result = {
  defined : string list;
  result : (Eval.outcome * int) option;
  output : string;
}

(* the R-value bindings of [tml]'s free identifiers: the session's
   current globals *)
let bindings session tml =
  List.map
    (fun id ->
      match Hashtbl.find_opt session.globals id.Ident.name with
      | Some v -> id, v
      | None -> Runtime.fault "session: unresolved global %s" id.Ident.name)
    (Ident.Set.elements (Term.free_vars_value tml))

(* a function whose globals all exist already, allocated bound *)
let alloc_bound session ~name tml =
  Value.Heap.alloc_func session.sctx.Runtime.heap ~name ~bindings:(bindings session tml) tml

(* Rebind a linked function to the current globals.  A new function
   object replaces the old one in its slot, without the old one's cached
   code and effect summary, so the heap generation moves and compiled
   call sites that resolved the old object revalidate. *)
let rebind session oid =
  let heap = session.sctx.Runtime.heap in
  match Value.Heap.get_opt heap oid with
  | Some (Value.Func fo) ->
    ignore (Tierup.retire fo);
    Value.Heap.set heap oid
      (Value.Func
         {
           fo with
           Value.fo_bindings = bindings session fo.Value.fo_tml;
           fo_tree_impl = None;
           fo_mach_impl = None;
           fo_code = None;
           fo_summary = None;
         })
  | _ -> ()

let relink_all session = List.iter (fun (_, oid) -> rebind session oid) session.funcs

(* Link a batch of freshly lowered definitions into the live store. *)
let link_batch session (defs : Lower.compiled_def list) =
  let heap = session.sctx.Runtime.heap in
  let redefined = ref false in
  let note_defined name =
    if Hashtbl.mem session.globals name then redefined := true
  in
  (* functions first, so that mutual recursion and forward value references
     resolve; they are bound once the batch's values exist *)
  let new_funcs =
    List.filter_map
      (fun (d : Lower.compiled_def) ->
        if d.Lower.c_is_fun then begin
          note_defined d.Lower.c_name;
          let oid = Value.Heap.alloc_func heap ~name:d.Lower.c_name d.Lower.c_tml in
          Hashtbl.replace session.globals d.Lower.c_name (Value.Oidv oid);
          Some (d.Lower.c_name, oid)
        end
        else None)
      defs
  in
  (* value definitions, in order *)
  List.iter
    (fun (d : Lower.compiled_def) ->
      if not d.Lower.c_is_fun then begin
        note_defined d.Lower.c_name;
        let oid = alloc_bound session ~name:(d.Lower.c_name ^ "!init") d.Lower.c_tml in
        match Machine.run_proc session.sctx (Value.Oidv oid) [] with
        | Eval.Done v -> Hashtbl.replace session.globals d.Lower.c_name v
        | Eval.Raised v ->
          Runtime.fault "initialization of %s raised %s" d.Lower.c_name (Value.to_string v)
        | Eval.No_fuel -> Runtime.fault "initialization of %s ran out of fuel" d.Lower.c_name
        | Eval.Fault msg ->
          Runtime.fault "initialization of %s faulted: %s" d.Lower.c_name msg
      end)
    defs;
  List.iter (fun (_, oid) -> rebind session oid) new_funcs;
  (* redefinition: existing callers must see the new binding *)
  if !redefined then relink_all session;
  session.funcs <-
    List.filter (fun (n, _) -> not (List.mem_assoc n new_funcs)) session.funcs @ new_funcs;
  List.map (fun (d : Lower.compiled_def) -> d.Lower.c_name) defs

let expr_name = "it"

let drop n xs = List.filteri (fun i _ -> i >= n) xs

let process session (items : Ast.item list) =
  Tml_query.Qprims.install ();
  let defs, actions =
    List.partition
      (function
        | Ast.Imodule _ | Ast.Idef _ -> true
        | Ast.Ido _ -> false)
      items
  in
  (* type-check everything ever defined plus this batch; only the batch's
     definitions are new, and only its do-blocks form the main expression *)
  let tprog =
    Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ())
      (session.accumulated @ defs @ actions)
  in
  let new_tdefs = drop session.lowered_count tprog.Typecheck.tdefs in
  let lowered = Lower.lower_defs session.lower_env new_tdefs in
  (* commit *)
  session.accumulated <- session.accumulated @ defs;
  session.lowered_count <- List.length tprog.Typecheck.tdefs;
  let defined = link_batch session lowered in
  let result =
    match tprog.Typecheck.tmain with
    | None -> None
    | Some main ->
      let tml = Lower.lower_main session.lower_env main in
      (* one name for every expression: per-function tables keyed by name
         (the VM profiler's) grow per function, not per evaluation *)
      let oid = alloc_bound session ~name:expr_name tml in
      let before = session.sctx.Runtime.steps in
      let outcome = Machine.run_proc session.sctx (Value.Oidv oid) [] in
      Some (outcome, session.sctx.Runtime.steps - before)
  in
  defined, result

let create ?(mode = Lower.Library) () =
  Tml_query.Qprims.install ();
  let session =
    {
      sctx = Runtime.create (Value.Heap.create ());
      lower_env = Lower.env_create ~mode;
      accumulated = [];
      lowered_count = 0;
      globals = Hashtbl.create 64;
      funcs = [];
      src_log = [];
    }
  in
  (* compile and link the standard library *)
  let defined, _ = process session [] in
  ignore defined;
  session

let feed session src =
  let items =
    match Parser.parse_program src with
    | items -> items
    | exception Parser.Parse_error _ ->
      (* bare-expression sugar: e  ==  do e end *)
      let e = Parser.parse_expr src in
      [ Ast.Ido e ]
  in
  let out_before = Buffer.length session.sctx.Runtime.out in
  let defined, result = process session items in
  if defined <> [] then session.src_log <- src :: session.src_log;
  let full = Buffer.contents session.sctx.Runtime.out in
  let output = String.sub full out_before (String.length full - out_before) in
  (* standard-library names were linked by [create]; don't echo them *)
  { defined; result; output }

(* ------------------------------------------------------------------ *)
(* Durable sessions                                                     *)
(*                                                                      *)
(* A session persists as a manifest module (the store root) referring   *)
(* to three vectors: the definition sources fed so far, the global      *)
(* bindings and the linked-function table.  [restore] replays the       *)
(* sources through the type checker and the lowering environment only — *)
(* no code is linked, no initializer runs, no object is allocated — and *)
(* then installs globals and functions from the manifest, so the        *)
(* persisted objects are faulted in lazily on first use.                *)
(* ------------------------------------------------------------------ *)

let manifest_name = "#session"

(* Values that survive the object codec: literals (including OIDs) and
   primitives.  Live closures cannot persist; a global holding one is
   dropped from the manifest. *)
let persistable v =
  match v with
  | Value.Primv _ -> true
  | _ -> Value.to_literal v <> None

let manifest_vectors session =
  let sources = Array.of_list (List.rev_map (fun s -> Value.Str s) session.src_log) in
  let globals =
    Hashtbl.fold
      (fun name v acc -> if persistable v then Value.Str name :: v :: acc else acc)
      session.globals []
    |> Array.of_list
  in
  let funcs =
    List.concat_map
      (fun (name, oid) -> [ Value.Str name; Value.Oidv oid ])
      session.funcs
    |> Array.of_list
  in
  sources, globals, funcs

let manifest_export (m : Value.module_obj) key =
  match Array.find_opt (fun (k, _) -> String.equal k key) m.Value.exports with
  | Some (_, v) -> v
  | None -> Runtime.fault "corrupt session manifest: missing %s" key

let stage session pstore =
  let heap = session.sctx.Runtime.heap in
  if heap != Pstore.heap pstore then
    invalid_arg "Repl.stage: session is not running on this store's heap";
  let sources, globals, funcs = manifest_vectors session in
  let exports ~s ~g ~f =
    [| "#sources", Value.Oidv s; "#globals", Value.Oidv g; "#funcs", Value.Oidv f |]
  in
  let root =
    match Pstore.root pstore with
    | Some moid when
        (match Value.Heap.get_opt heap moid with
        | Some (Value.Module m) -> String.equal m.Value.mod_name manifest_name
        | _ -> false) ->
      (* update the existing manifest objects in place *)
      let m =
        match Value.Heap.get heap moid with
        | Value.Module m -> m
        | _ -> assert false
      in
      let vec key =
        match manifest_export m key with
        | Value.Oidv o -> o
        | _ -> Runtime.fault "corrupt session manifest: %s is not a reference" key
      in
      let s = vec "#sources" and g = vec "#globals" and f = vec "#funcs" in
      Value.Heap.set heap s (Value.Vector sources);
      Value.Heap.set heap g (Value.Vector globals);
      Value.Heap.set heap f (Value.Vector funcs);
      (* a manifest written while the specialization cache existed has a
         fourth export, "#speccache": the rewritten module drops it *)
      Value.Heap.set heap moid
        (Value.Module { Value.mod_name = manifest_name; exports = exports ~s ~g ~f });
      moid
    | _ ->
      let s = Value.Heap.alloc heap (Value.Vector sources) in
      let g = Value.Heap.alloc heap (Value.Vector globals) in
      let f = Value.Heap.alloc heap (Value.Vector funcs) in
      Value.Heap.alloc heap
        (Value.Module { Value.mod_name = manifest_name; exports = exports ~s ~g ~f })
  in
  root

let persist session pstore =
  let root = stage session pstore in
  Pstore.commit ~root pstore

(* Replay one definition source: type-check it against everything replayed
   so far and lower it, purely to regrow the incremental environments. *)
let replay_defs session src =
  let items = Parser.parse_program src in
  let defs =
    List.filter
      (function
        | Ast.Imodule _ | Ast.Idef _ -> true
        | Ast.Ido _ -> false)
      items
  in
  let tprog =
    Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) (session.accumulated @ defs)
  in
  let new_tdefs = drop session.lowered_count tprog.Typecheck.tdefs in
  ignore (Lower.lower_defs session.lower_env new_tdefs);
  session.accumulated <- session.accumulated @ defs;
  session.lowered_count <- List.length tprog.Typecheck.tdefs;
  session.src_log <- src :: session.src_log

let restore ?(mode = Lower.Library) pstore =
  Tml_query.Qprims.install ();
  let heap = Pstore.heap pstore in
  let session =
    {
      sctx = Runtime.create heap;
      lower_env = Lower.env_create ~mode;
      accumulated = [];
      lowered_count = 0;
      globals = Hashtbl.create 64;
      funcs = [];
      src_log = [];
    }
  in
  (* regrow the standard library's type and lowering environments; its
     linked objects come back from the store like everything else *)
  let tprog = Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) [] in
  ignore (Lower.lower_defs session.lower_env tprog.Typecheck.tdefs);
  session.lowered_count <- List.length tprog.Typecheck.tdefs;
  let moid =
    match Pstore.root pstore with
    | Some moid -> moid
    | None -> Runtime.fault "store %s holds no session manifest" (Pstore.path pstore)
  in
  let m =
    match Value.Heap.get_opt heap moid with
    | Some (Value.Module m) when String.equal m.Value.mod_name manifest_name -> m
    | _ -> Runtime.fault "store %s holds no session manifest" (Pstore.path pstore)
  in
  let vec key =
    match manifest_export m key with
    | Value.Oidv o -> (
      match Value.Heap.get_opt heap o with
      | Some (Value.Vector vs) -> vs
      | _ -> Runtime.fault "corrupt session manifest: bad %s vector" key)
    | _ -> Runtime.fault "corrupt session manifest: %s is not a reference" key
  in
  Array.iter
    (function
      | Value.Str src -> replay_defs session src
      | v -> Runtime.fault "corrupt session manifest: source %s" (Value.to_string v))
    (vec "#sources");
  let pairs key f =
    let vs = vec key in
    if Array.length vs mod 2 <> 0 then
      Runtime.fault "corrupt session manifest: odd %s vector" key;
    for i = 0 to (Array.length vs / 2) - 1 do
      match vs.(2 * i) with
      | Value.Str name -> f name vs.((2 * i) + 1)
      | v -> Runtime.fault "corrupt session manifest: name %s" (Value.to_string v)
    done
  in
  pairs "#globals" (fun name v -> Hashtbl.replace session.globals name v);
  let funcs = ref [] in
  pairs "#funcs" (fun name v ->
      match v with
      | Value.Oidv oid -> funcs := (name, oid) :: !funcs
      | v -> Runtime.fault "corrupt session manifest: function %s" (Value.to_string v));
  session.funcs <- List.rev !funcs;
  session
