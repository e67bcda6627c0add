open Tml_core
open Term

(* The latent signature of an abstraction: the effect of running its body,
   phrased so that exits through the abstraction's own continuation
   parameters stay symbolic and can be mapped through the actual
   continuation arguments at each call site. *)
type summary = {
  params : Ident.t list;
  body_sig : Effsig.t;
}

type cont_info = {
  c_arity : int option;  (* None: unknown, jumps are assumed well-sorted *)
  c_sig : Effsig.t;
}

type denot =
  | Dproc of summary
  | Dcont of cont_info
  | Dprim of string
  | Dopaque

type env = denot Ident.Map.t

let empty_env : env = Ident.Map.empty

(* Resolution hook for procedures appearing as literal OIDs.  Unknown
   (top) by default; the reflective optimizer scopes it, for one run, to
   the summaries on the function objects of the heap under optimization,
   so stored callees become known callees. *)
let oid_resolver : (Oid.t -> summary option) ref = ref (fun _ -> None)

(* Value argument positions at which a primitive invokes a user procedure
   (query predicates / targets / bodies, trigger procedures).  Closures at
   any other value position are data: they only run where some application
   node applies them, and that node is analyzed on its own. *)
let callee_positions = function
  | "select" | "project" | "exists" | "foreach" | "sum" | "minagg" | "maxagg" | "join" -> [ 0 ]
  | "ontrigger" -> [ 1 ]
  | _ -> []

(* Primitives that can never fault at runtime, whatever well-sorted values
   they receive.  ["=="] compares arbitrary values but falls through when no
   tag matches and no default branch is given; the allocators accept any
   slot values.  Everything else is conservatively assumed to be able to
   fault (runtime argument type checks, bounds checks, overflow of the
   handler stack, ...). *)
let never_faults name (args : value list) =
  match name with
  | "tuple" | "vector" | "array" | "relation" -> true
  | "==" -> (
    match Primitives.case_split args with
    | Some (_, _, _, Some _) -> true
    | Some (_, tags, _, None) ->
      (* total only if some tag is decidably equal to the scrutinee —
         folding would have removed it; stay conservative *)
      ignore tags;
      false
    | None -> false)
  | _ -> false

let strip (s : summary) : Effsig.t =
  match s.body_sig.Effsig.exits with
  | Effsig.Unknown -> s.body_sig
  | Effsig.Exact ex ->
    {
      s.body_sig with
      Effsig.exits =
        Effsig.Exact (List.fold_left (fun ex p -> Ident.Set.remove p ex) ex s.params);
    }

let opaque_params env params =
  List.fold_left (fun e p -> Ident.Map.add p Dopaque e) env params

let rec analyze (env : env) (a : app) : Effsig.t =
  match a.func with
  | Var c when Ident.is_cont c -> jump env c a.args
  | Var f -> (
    match Ident.Map.find_opt f env with
    | Some (Dproc s) -> apply env s a.args
    | Some (Dprim p) -> prim_app env p a.args
    | Some (Dcont i) -> i.c_sig
    | Some Dopaque | None -> Effsig.top)
  | Abs f when List.length f.params = List.length a.args ->
    let env' =
      List.fold_left2 (fun e p arg -> Ident.Map.add p (denot env arg) e) env f.params a.args
    in
    analyze env' f.body
  | Abs _ -> Effsig.top
  | Prim "Y" -> analyze_y env a.args
  | Prim name -> prim_app env name a.args
  | Lit (Literal.Oid o) -> (
    match !oid_resolver o with
    | Some s -> apply env s a.args
    | None -> Effsig.top)
  | Lit _ -> Effsig.top

and jump env c args =
  match Ident.Map.find_opt c env with
  | Some (Dcont i) -> (
    match i.c_arity with
    | Some n when n <> List.length args -> Effsig.top
    | _ -> i.c_sig)
  | Some (Dproc s) -> apply env s args
  | Some (Dprim p) -> prim_app env p args
  | Some Dopaque | None -> Effsig.exit_to c

and denot env (v : value) : denot =
  match v with
  | Abs a when Term.abs_kind a = `Cont ->
    Dcont { c_arity = Some (List.length a.params); c_sig = cont_sig env v }
  | Abs a -> Dproc (summarize env a)
  | Var id -> (
    match Ident.Map.find_opt id env with
    | Some d -> d
    | None -> Dopaque)
  | Prim p -> Dprim p
  | Lit (Literal.Oid o) -> (
    match !oid_resolver o with
    | Some s -> Dproc s
    | None -> Dopaque)
  | Lit _ -> Dopaque

and summarize env (a : abs) : summary =
  { params = a.params; body_sig = analyze (opaque_params env a.params) a.body }

and cont_sig env (v : value) : Effsig.t =
  match v with
  | Var c -> (
    match Ident.Map.find_opt c env with
    | Some (Dcont i) -> i.c_sig
    | Some (Dproc s) -> strip s
    | Some (Dprim p) -> (
      match Prim.find p with
      | Some d -> { Effsig.top with Effsig.eff = d.Prim.attrs.Prim.effects }
      | None -> Effsig.top)
    | Some Dopaque | None -> Effsig.exit_to c)
  | Abs a -> analyze (opaque_params env a.params) a.body
  | Prim _ | Lit _ -> Effsig.top

and apply env (s : summary) (args : value list) : Effsig.t =
  if List.length s.params <> List.length args then Effsig.top
  else
    match s.body_sig.Effsig.exits with
    | Effsig.Unknown ->
      (* the callee can invoke any of its continuation arguments *)
      List.fold_left
        (fun acc arg ->
          if Prim.is_cont_arg arg then Effsig.join acc (cont_sig env arg) else acc)
        s.body_sig args
    | Effsig.Exact ex ->
      let pairs = List.combine s.params args in
      let base = { s.body_sig with Effsig.exits = Effsig.Exact Ident.Set.empty } in
      Ident.Set.fold
        (fun e acc ->
          match List.find_opt (fun (p, _) -> Ident.equal p e) pairs with
          | Some (_, arg) -> Effsig.join acc (cont_sig env arg)
          | None -> Effsig.join acc (Effsig.exit_to e))
        ex base

and prim_app env name (args : value list) : Effsig.t =
  match Prim.find name with
  | None -> Effsig.top
  | Some d ->
    let base =
      {
        Effsig.bot with
        Effsig.eff = d.Prim.attrs.Prim.effects;
        faults = not (never_faults name args);
        (* raise transfers to a dynamically scoped handler; ccall can
           re-enter the system arbitrarily *)
        exits =
          (match name with
          | "raise" | "ccall" -> Effsig.Unknown
          | _ -> Effsig.Exact Ident.Set.empty);
      }
    in
    let callee = callee_positions name in
    let value_idx = ref (-1) in
    List.fold_left
      (fun acc arg ->
        if Prim.is_cont_arg arg then Effsig.join acc (cont_sig env arg)
        else begin
          incr value_idx;
          if List.mem !value_idx callee then
            match denot env arg with
            | Dproc s -> Effsig.join acc (strip s)
            | Dcont i -> Effsig.join acc i.c_sig
            | Dprim _ | Dopaque -> Effsig.top
          else acc
        end)
      base args

(* Y: iterate the nest members' summaries to a fixpoint (the lattice is
   finite: effect classes are a 5-chain, flags are booleans and exit sets
   only grow within the identifiers of the term).  Divergence is always
   assumed — the paper's examples use Y precisely for unbounded loops. *)
and analyze_y env (args : value list) : Effsig.t =
  match args with
  | [ binder ] -> (
    match Primitives.y_split binder with
    | None -> Effsig.top
    | Some (c0, vs, c, k0, abss) ->
      let members = List.combine vs abss in
      let bind_members env sigs =
        List.fold_left2
          (fun e (v, abs_v) s ->
            match abs_v with
            | Abs a ->
              if Ident.is_cont v then
                Ident.Map.add v (Dcont { c_arity = Some (List.length a.params); c_sig = s }) e
              else Ident.Map.add v (Dproc { params = a.params; body_sig = s }) e
            | _ -> e)
          env members sigs
      in
      let member_sig env_fix (_, abs_v) =
        match abs_v with
        | Abs a -> analyze (opaque_params env_fix a.params) a.body
        | _ -> Effsig.top
      in
      let max_iters = 10 in
      let rec iterate n sigs =
        let env_fix = bind_members env sigs in
        let sigs' = List.map (member_sig env_fix) members in
        if List.for_all2 Effsig.equal sigs sigs' then Some env_fix
        else if n >= max_iters then None
        else iterate (n + 1) sigs'
      in
      (match iterate 0 (List.map (fun _ -> Effsig.bot) members) with
      | None -> Effsig.top
      | Some env_fix ->
        let entry = cont_sig env_fix k0 in
        let r = { entry with Effsig.diverges = true } in
        (* scrub the binder-internal identifiers from the exit set; an exit
           through c0 or c (Y's own plumbing continuations) escapes to a
           context the analysis cannot see *)
        (match r.Effsig.exits with
        | Effsig.Unknown -> r
        | Effsig.Exact ex ->
          let ex = List.fold_left (fun ex v -> Ident.Set.remove v ex) ex vs in
          if Ident.Set.mem c0 ex || Ident.Set.mem c ex then
            { r with Effsig.exits = Effsig.Unknown }
          else { r with Effsig.exits = Effsig.Exact ex }))
    )
  | _ -> Effsig.top

let sig_of_app ?(env = empty_env) a = analyze env a

let summary_of_value (v : value) : summary option =
  match v with
  | Abs a -> Some (summarize empty_env a)
  | _ -> None

(* [jumps_with_arity v n a]: every occurrence of [v] in [a] is as the head
   of an application with exactly [n] arguments — the companion check that
   lets a rule trust an [Exact] exit set to also be arity-correct when the
   exit continuation's shape is known. *)
let jumps_with_arity (v : Ident.t) (n : int) (a : app) =
  let ok = ref true in
  Term.iter_apps
    (fun node ->
      let arg_use value =
        match value with
        | Var id when Ident.equal id v -> ok := false
        | _ -> ()
      in
      (match node.func with
      | Var id when Ident.equal id v -> if List.length node.args <> n then ok := false
      | v' -> arg_use v');
      List.iter arg_use node.args)
    a;
  !ok
