open Tml_core
open Term

(* The syntactic side-condition walks of the rule DSL's closed precondition
   vocabulary: domain-independent term analyses, so the rule language owns
   them.  The aliasing condition is not a syntactic walk: [Dsl] decides it
   with the escape analysis of [Tml_analysis.Alias]. *)

(* A conservative syntactic purity check: only continuation-variable jumps,
   β-redexes and primitives of effect class [Pure] (excluding [Y], whose
   recursion could diverge). *)
let rec pure_app (a : app) =
  let head_ok =
    match a.func with
    | Prim "Y" -> false
    | Prim name -> (
      match Prim.find name with
      | Some d -> d.Prim.attrs.effects = Prim.Pure
      | None -> false)
    | Var id -> Ident.is_cont id
    | Abs _ -> true
    | Lit _ -> false
  in
  head_ok
  && List.for_all
       (fun v ->
         match v with
         | Abs inner -> pure_app inner.body
         | Lit _ | Var _ | Prim _ -> true)
       (a.func :: a.args)

(* A predicate is "row-local" when it observes the row exclusively through
   field reads ([] with the row as the indexed object) and performs no
   mutation, host calls or recursion: such a predicate is a deterministic
   function of the row's field contents (content-equal rows have pairwise
   identical field values), so per-content-class transformations like
   swapping selection with duplicate elimination cannot change behaviour. *)
let rec row_local x (a : app) =
  let head_ok =
    match a.func with
    | Prim "Y" -> false
    | Prim name -> (
      match Prim.find name with
      | Some d -> (
        match d.Prim.attrs.effects with
        | Prim.Pure | Prim.Observer -> true
        | Prim.Mutator | Prim.Control | Prim.External -> false)
      | None -> false)
    | Var id -> Ident.is_cont id
    | Abs _ -> true
    | Lit _ -> false
  in
  let row_use_ok pos v =
    match v with
    | Var id when Ident.equal id x -> (
      (* only as the indexed object of a field read *)
      match a.func with
      | Prim "[]" -> pos = 0
      | _ -> false)
    | _ -> true
  in
  let sub_ok v =
    match v with
    | Abs inner -> row_local x inner.body
    | Lit _ | Var _ | Prim _ -> true
  in
  head_ok
  && List.for_all2 row_use_ok (List.init (List.length a.args) Fun.id) a.args
  && List.for_all sub_ok (a.func :: a.args)
