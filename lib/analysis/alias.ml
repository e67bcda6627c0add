open Tml_core
open Term

(* Relation-reading primitives and the argument positions (over the full
   argument list) at which a relation is consumed read-only. *)
let reader_positions = function
  | "select" | "project" | "exists" | "sum" | "minagg" | "maxagg" | "foreach" -> [ 1 ]
  | "join" -> [ 1; 2 ]
  | "count" | "empty" | "distinct" | "indexselect" -> [ 0 ]
  | "union" | "inter" | "diff" -> [ 0; 1 ]
  | _ -> []

(* Taint kinds: [Atmp] — the identifier may denote the aliased relation
   itself; [Acapture] — it may denote a closure whose environment reaches
   the relation. *)
type taint =
  | Atmp
  | Acapture

type use =
  | Reader  (* relation-reading argument position of a primitive *)
  | Escape  (* any position the analysis cannot account for *)
  | Head    (* applied in functional position *)

(* Flow-based escape analysis for one candidate alias: collect, in one
   structural walk, (a) the binding structure reachable from β-redexes
   (both value procedures and continuations bound by direct application),
   (b) flow edges variable→parameter induced by calls through those
   bindings, (c) capture edges free-variable→parameter for closures passed
   as arguments, and (d) every use of every variable with its kind.  Then
   propagate taint over the edges and check the recorded uses:

   - a variable that may BE the relation ([Atmp]) may only appear at
     relation-reading primitive positions;
   - a variable that may CAPTURE it ([Acapture]) may only be applied (its
     body is part of the walked term, so its uses of the relation are
     themselves checked); passing it anywhere the analysis cannot follow
     would let reads survive past the region. *)
let escapes ~(tmp : Ident.t) (body : app) =
  let bindings : abs Ident.Tbl.t = Ident.Tbl.create 16 in
  let edges : (Ident.t * Ident.t) list ref = ref [] in
  let captures : (Ident.t * Ident.t) list ref = ref [] in
  let uses : (Ident.t * use) list ref = ref [] in
  let flow_into params args =
    (* passing [arg_i] binds it to [param_i] *)
    List.iter2
      (fun p arg ->
        match arg with
        | Var v -> edges := (v, p) :: !edges
        | Abs a ->
          Ident.Set.iter (fun w -> captures := (w, p) :: !captures) (Term.free_vars_value (Abs a))
        | Lit _ | Prim _ -> ())
      params args
  in
  let unknown_call args =
    List.iter
      (fun arg ->
        match arg with
        | Var v -> uses := (v, Escape) :: !uses
        | Abs a ->
          Ident.Set.iter (fun w -> uses := (w, Escape) :: !uses) (Term.free_vars_value (Abs a))
        | Lit _ | Prim _ -> ())
      args
  in
  let collect (node : app) =
    match node.func with
    | Abs f when List.length f.params = List.length node.args ->
      (* β-redex: record the bindings for later calls through variables and
         flow the arguments into the parameters *)
      List.iter2
        (fun p arg ->
          match arg with
          | Abs a -> Ident.Tbl.replace bindings p a
          | _ -> ())
        f.params node.args;
      flow_into f.params node.args
    | Abs _ -> unknown_call node.args
    | Var h -> (
      uses := (h, Head) :: !uses;
      match Ident.Tbl.find_opt bindings h with
      | Some a when List.length a.params = List.length node.args -> flow_into a.params node.args
      | Some _ | None -> unknown_call node.args)
    | Prim name ->
      let readers = reader_positions name in
      (* a closure argument may end up inside the primitive's result (e.g.
         [tuple]), so its captures flow to the result continuation's
         parameters; extracting it back out is blocked separately because
         container reads are not reader positions for taint *)
      let result_params =
        List.concat_map
          (fun arg ->
            match arg with
            | Abs a when Prim.is_cont_arg arg -> a.params
            | _ -> [])
          node.args
      in
      List.iteri
        (fun i arg ->
          match arg with
          | Var v -> uses := (v, if List.mem i readers then Reader else Escape) :: !uses
          | Abs a when not (Prim.is_cont_arg arg) ->
            Ident.Set.iter
              (fun w -> List.iter (fun p -> captures := (w, p) :: !captures) result_params)
              (Term.free_vars_value (Abs a))
          | Abs _ | Lit _ | Prim _ -> ())
        node.args
    | Lit _ -> unknown_call node.args
  in
  (* Bindings are recorded in the same outermost-first traversal that
     records uses; a call through a binding can only occur in the binder's
     scope, which iter_apps visits after the binding site. *)
  Term.iter_apps collect body;
  (* propagate taint over the flow and capture edges to a fixpoint *)
  let taints : taint Ident.Tbl.t = Ident.Tbl.create 16 in
  Ident.Tbl.replace taints tmp Atmp;
  let stronger old_ new_ =
    match old_, new_ with
    | None, t -> Some t
    | Some Atmp, _ | Some _, Atmp -> Some Atmp
    | Some Acapture, Acapture -> Some Acapture
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let set id t =
      let cur = Ident.Tbl.find_opt taints id in
      match stronger cur t with
      | Some t' when cur <> Some t' ->
        Ident.Tbl.replace taints id t';
        changed := true
      | _ -> ()
    in
    List.iter
      (fun (src, dst) ->
        match Ident.Tbl.find_opt taints src with
        | Some t -> set dst t
        | None -> ())
      !edges;
    List.iter
      (fun (src, dst) ->
        if Ident.Tbl.mem taints src then set dst Acapture)
      !captures
  done;
  (* check every recorded use against the propagated taint *)
  List.exists
    (fun (v, use) ->
      match Ident.Tbl.find_opt taints v, use with
      | None, _ -> false
      | Some _, Escape -> true
      | Some Atmp, Head -> true  (* applying the relation itself *)
      | Some Acapture, Head -> false
      | Some Atmp, Reader -> false
      | Some Acapture, Reader -> false)
    !uses

(* The gate for σtrue(R) ≡ R: aliasing the select result to the base
   relation is unobservable when (a) while the alias is live nothing can
   write the store or escape the system — the region's inferred effect is
   at most Observer, with unknown callees going to top — and (b) the alias
   itself never flows to a non-reading position: writes and identity tests
   through either name are ruled out, and neither the relation nor a
   closure that captures it can leave the region through an unknown
   continuation.  A closure that captures the alias and is passed to the
   return continuation counts as an escape: the caller may run it after a
   later insert into R, and it must then still see the copy.  Calls to
   λ-bound procedures inside the region are resolved by the inference
   instead of being rejected outright. *)
let select_alias_ok ~(tmp : Ident.t) (body : app) =
  Effsig.read_only (Infer.sig_of_app body) && not (escapes ~tmp body)
