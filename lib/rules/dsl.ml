open Tml_core
open Term

(* ------------------------------------------------------------------ *)
(* The declarative rule language                                        *)
(* ------------------------------------------------------------------ *)

(* A rule is an LHS term pattern with metavariables, a side-condition list
   drawn from the closed vocabulary [cond] (decided by the [Sidecond] walks
   and the escape analysis of [Tml_analysis.Alias]), and an RHS template.
   Three namespaces of metavariables exist side by side:

   - {e value} metavariables ([P_any]) bind whole TML values; a value
     metavariable may occur several times in the LHS, in which case later
     occurrences must be [Term.equal_value]-equal to the first (the
     non-linear match the merge rules use for the shared exception
     continuation);
   - {e binder} metavariables bind the formal parameters of matched
     abstractions ([P_abs]) to their identifiers; [P_bvar] matches a
     variable occurrence of a previously bound binder;
   - {e app} metavariables ([PA_any], or the [pa_bind] slot of a
     structured app pattern) bind whole application nodes so side
     conditions and RHS splices can refer to them.

   Sorts ([vsort]/[asort]) are generation hints only: matching ignores
   them, the derived proof obligation uses them to instantiate the pattern
   at concrete generated redexes. *)

type mvar = string

type vsort =
  | Sval  (** an arbitrary first-class value *)
  | Srel  (** a relation *)
  | Spred  (** a row predicate [proc(x pce pcc)] answering a boolean *)
  | Sproj  (** a projection target [proc(x pce pcc)] building a tuple *)
  | Scont_rel  (** a continuation consuming a relation *)
  | Scont_bool  (** a continuation consuming a boolean *)
  | Secont  (** an exception continuation *)

type asort =
  | Agen  (** no structure known; obligations cannot instantiate it *)
  | Apred_body
      (** the body of a row predicate over the enclosing binders *)
  | Aconsume_rel of mvar
      (** a computation consuming the relation bound to the named binder
          read-only *)

type vpat =
  | P_any of mvar * vsort
  | P_lit of Literal.t
  | P_prim of string
  | P_bvar of mvar
  | P_abs of (mvar * Ident.sort) list * apat

and apat =
  | PA_any of mvar * asort
  | PA_node of {
      pa_bind : mvar option;
      pa_func : vpat;
      pa_args : vpat list;
    }

type cond =
  | Used_once of mvar * mvar  (** binder occurs exactly once in app *)
  | Not_occurs of mvar * mvar  (** binder does not occur in app *)
  | Alias_consumed_ok of mvar * mvar
      (** app consumes the relation bound to binder alias-safely: the
          escape analysis [Tml_analysis.Alias.select_alias_ok] *)
  | Pure_app of mvar  (** app is syntactically pure ({!Sidecond.pure_app}) *)
  | Row_local of mvar * mvar  (** app observes binder only via field reads *)
  | Size_le of mvar * int  (** value has tree size at most the bound *)

type rbinder =
  | B_ref of mvar  (** reuse an LHS binder (its subtree is being rebuilt) *)
  | B_fresh of mvar * string * Ident.sort
      (** mint a fresh identifier at instantiation time *)

type rv =
  | R_val of mvar
  | R_fresh_copy of mvar  (** α-freshened copy: the duplicating occurrence *)
  | R_bvar of mvar  (** variable occurrence of an LHS or RHS-fresh binder *)
  | R_lit of Literal.t
  | R_prim of string
  | R_abs of rbinder list * ra

and ra =
  | RA_app of rv * rv list
  | RA_splice of mvar

type size_class =
  | Decreasing
  | Neutral of string
  | Bounded_growth of string

type decl = {
  lhs : apat;
  conds : cond list;
  rhs : ra;
  size : size_class;
  drops : (mvar * string) list;
  dups : mvar list;
}

type head =
  | Head_prim of string
  | Head_oid
  | Head_lit
  | Head_abs
  | Head_var
  | Head_any

type impl =
  | Decl of decl
  | Closure of Rewrite.rule

type rule = {
  name : string;
  fact : string;
  doc : string;
  heads : head list;
  impl : impl;
}

let pp_head ppf = function
  | Head_prim p -> Format.fprintf ppf "(%s …)" p
  | Head_oid -> Format.pp_print_string ppf "(oid …)"
  | Head_lit -> Format.pp_print_string ppf "(lit …)"
  | Head_abs -> Format.pp_print_string ppf "(proc …)"
  | Head_var -> Format.pp_print_string ppf "(var …)"
  | Head_any -> Format.pp_print_string ppf "(_ …)"

let heads_of_apat = function
  | PA_any _ -> [ Head_any ]
  | PA_node { pa_func; _ } -> (
    match pa_func with
    | P_prim p -> [ Head_prim p ]
    | P_lit (Literal.Oid _) -> [ Head_oid ]
    | P_lit _ -> [ Head_lit ]
    | P_abs _ -> [ Head_abs ]
    | P_bvar _ -> [ Head_var ]
    | P_any _ -> [ Head_any ])

(* ------------------------------------------------------------------ *)
(* Matching                                                             *)
(* ------------------------------------------------------------------ *)

module SM = Map.Make (String)

type env = {
  vals : Term.value SM.t;
  apps : Term.app SM.t;
  binders : Ident.t SM.t;
}

let empty_env = { vals = SM.empty; apps = SM.empty; binders = SM.empty }

(* All-or-nothing matching with an exception for the failure path: the
   dispatcher calls this on every candidate node, so the miss path must
   not allocate options per sub-pattern. *)
exception No_match

let rec match_vpat env pat (v : value) =
  match pat, v with
  | P_any (m, _), _ -> (
    match SM.find_opt m env.vals with
    | Some v0 -> if equal_value v0 v then env else raise No_match
    | None -> { env with vals = SM.add m v env.vals })
  | P_lit l, Lit l' -> if Literal.equal l l' then env else raise No_match
  | P_prim p, Prim p' -> if String.equal p p' then env else raise No_match
  | P_bvar m, Var id -> (
    match SM.find_opt m env.binders with
    | Some id0 -> if Ident.equal id0 id then env else raise No_match
    | None -> raise No_match)
  | P_abs (bs, body), Abs a ->
    if List.length bs <> List.length a.params then raise No_match;
    let env =
      List.fold_left2
        (fun env (m, _sort) id -> { env with binders = SM.add m id env.binders })
        env bs a.params
    in
    match_apat env body a.body
  | (P_lit _ | P_prim _ | P_bvar _ | P_abs _), _ -> raise No_match

and match_apat env pat (a : app) =
  match pat with
  | PA_any (m, _) -> { env with apps = SM.add m a env.apps }
  | PA_node { pa_bind; pa_func; pa_args } ->
    if List.length pa_args <> List.length a.args then raise No_match;
    let env =
      match pa_bind with
      | Some m -> { env with apps = SM.add m a env.apps }
      | None -> env
    in
    let env = match_vpat env pa_func a.func in
    List.fold_left2 match_vpat env pa_args a.args

let match_rule lhs (a : app) =
  match match_apat empty_env lhs a with
  | env -> Some env
  | exception No_match -> None

(* ------------------------------------------------------------------ *)
(* Side-condition evaluation                                            *)
(* ------------------------------------------------------------------ *)

let binder env m = SM.find m env.binders
let the_app env m = SM.find m env.apps
let the_val env m = SM.find m env.vals

let eval_cond env = function
  | Used_once (b, m) -> Occurs.count_app (binder env b) (the_app env m) = 1
  | Not_occurs (b, m) -> not (Occurs.occurs_app (binder env b) (the_app env m))
  | Alias_consumed_ok (b, m) ->
    Tml_analysis.Alias.select_alias_ok ~tmp:(binder env b) (the_app env m)
  | Pure_app m -> Sidecond.pure_app (the_app env m)
  | Row_local (b, m) -> Sidecond.row_local (binder env b) (the_app env m)
  | Size_le (m, bound) -> Term.size_value (the_val env m) <= bound

(* ------------------------------------------------------------------ *)
(* RHS instantiation                                                    *)
(* ------------------------------------------------------------------ *)

let rec inst_rv env = function
  | R_val m -> the_val env m
  | R_fresh_copy m -> Alpha.freshen_value (the_val env m)
  | R_bvar m -> Var (binder env m)
  | R_lit l -> Lit l
  | R_prim p -> Prim p
  | R_abs (bs, body) ->
    let env, params =
      List.fold_left
        (fun (env, acc) b ->
          match b with
          | B_ref m -> env, binder env m :: acc
          | B_fresh (m, name, sort) ->
            let id = Ident.fresh ~sort name in
            { env with binders = SM.add m id env.binders }, id :: acc)
        (env, []) bs
    in
    Abs { params = List.rev params; body = inst_ra env body }

and inst_ra env = function
  | RA_splice m -> the_app env m
  | RA_app (f, args) -> { func = inst_rv env f; args = List.map (inst_rv env) args }

(* ------------------------------------------------------------------ *)
(* Compilation to a Rewrite.rule                                        *)
(* ------------------------------------------------------------------ *)

let compile_decl ~name ~fact (d : decl) : Rewrite.rule =
 fun a ->
  match match_rule d.lhs a with
  | Some env when List.for_all (eval_cond env) d.conds ->
    let a' = inst_ra env d.rhs in
    Rewrite.note_rule ~fact name;
    Some a'
  | Some _ | None -> None

let to_rewrite (r : rule) : Rewrite.rule =
  match r.impl with
  | Decl d -> compile_decl ~name:r.name ~fact:r.fact d
  | Closure f -> f

(* Smart constructors. *)

let decl_rule ~name ?(fact = "") ~doc ?(drops = []) ?(dups = []) ~size lhs conds rhs =
  { name; fact; doc; heads = heads_of_apat lhs; impl = Decl { lhs; conds; rhs; size; drops; dups } }

let closure_rule ~name ?(fact = "") ~doc ~heads fn = { name; fact; doc; heads; impl = Closure fn }

(* Pattern shorthands (the rule modules read much better with these). *)

let pa ?bind func args = PA_node { pa_bind = bind; pa_func = func; pa_args = args }
let pprim = fun p -> P_prim p
let pany ?(sort = Sval) m = P_any (m, sort)
let ra f args = RA_app (f, args)
