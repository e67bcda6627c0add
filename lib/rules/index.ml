open Tml_core

(* ------------------------------------------------------------------ *)
(* Discrimination-style dispatch                                        *)
(* ------------------------------------------------------------------ *)

(* The reduction pass tries every domain rule at every application node —
   a linear scan that is the optimizer's hot loop at scale.  Every rule
   declares the head shapes it can fire at ([Dsl.heads]); compiling the
   active rule set groups the rules into per-head buckets keyed on the
   root of the candidate node, so lookup is one match + one hashtable
   probe instead of N pattern attempts.

   Prim buckets additionally specialize on argument count: a declarative
   rule whose LHS root is [PA_node] with a [P_prim] head can only match
   an application with exactly [length pa_args] arguments (the matcher
   length-checks before descending), so each prim bucket carries per-arity
   slots holding the exact-arity rules of that arity merged with the
   arity-agnostic ones (closure rules, [PA_any] roots).  An argument
   count with no exact-arity rule falls back to the arity-agnostic slot
   alone.

   Observable equivalence with the linear scan is by construction: each
   bucket holds exactly the rules whose head test could succeed at that
   root, merged with the wildcard rules, {e in original list order} — the
   rules the bucket (or arity slot) skips would have answered [None]
   anyway, so the first [Some] is the same, the noted provenance name is
   the same, and the per-rule fire counts are the same.  The property
   test in [test_rules.ml] checks precisely this on generated query
   pipelines. *)

type prim_bucket = {
  pb_generic : Rewrite.rule array;
      (* arity-agnostic rules only: closures, PA_any roots *)
  pb_by_arity : (int * Rewrite.rule array) array;
      (* exact-arity rules of arity n + arity-agnostic, in original order *)
}

type buckets = {
  b_prim : (string, prim_bucket) Hashtbl.t;
  b_oid : Rewrite.rule array;
  b_lit : Rewrite.rule array;
  b_abs : Rewrite.rule array;
  b_var : Rewrite.rule array;
  b_any : Rewrite.rule array;  (* wildcard-only: primes absent from b_prim *)
}

let try_bucket (bucket : Rewrite.rule array) (a : Term.app) =
  let n = Array.length bucket in
  let rec go i =
    if i >= n then None
    else
      match bucket.(i) a with
      | Some _ as r -> r
      | None -> go (i + 1)
  in
  go 0

(* The argument count a rule's pattern demands at prim [p], when
   derivable: a declarative LHS rooted [PA_node (P_prim p) args] matches
   only length-[args] applications.  Closures and [PA_any] roots are
   arity-agnostic. *)
let decl_arity p (r : Dsl.rule) =
  match r.Dsl.impl with
  | Dsl.Decl { Dsl.lhs = Dsl.PA_node { pa_func = Dsl.P_prim p'; pa_args; _ }; _ }
    when String.equal p p' ->
    Some (List.length pa_args)
  | _ -> None

let compile_buckets (rules : Dsl.rule list) =
  let entries = List.mapi (fun i r -> i, r, Dsl.to_rewrite r) rules in
  let matching pred =
    entries
    |> List.filter (fun (_, r, _) ->
           List.exists (fun h -> pred h || h = Dsl.Head_any) r.Dsl.heads)
    |> List.map (fun (_, _, fn) -> fn)
    |> Array.of_list
  in
  let prim_names =
    List.concat_map
      (fun (_, r, _) ->
        List.filter_map (function Dsl.Head_prim p -> Some p | _ -> None) r.Dsl.heads)
      entries
    |> List.sort_uniq String.compare
  in
  let b_prim = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let matched =
        List.filter
          (fun (_, r, _) ->
            List.exists
              (fun h -> h = Dsl.Head_prim p || h = Dsl.Head_any)
              r.Dsl.heads)
          entries
      in
      let arr l = Array.of_list (List.map (fun (_, _, fn) -> fn) l) in
      let arities =
        List.filter_map (fun (_, r, _) -> decl_arity p r) matched
        |> List.sort_uniq compare
      in
      let pb_generic =
        arr (List.filter (fun (_, r, _) -> decl_arity p r = None) matched)
      in
      let pb_by_arity =
        arities
        |> List.map (fun n ->
               ( n,
                 arr
                   (List.filter
                      (fun (_, r, _) ->
                        match decl_arity p r with Some m -> m = n | None -> true)
                      matched) ))
        |> Array.of_list
      in
      Hashtbl.replace b_prim p { pb_generic; pb_by_arity })
    prim_names;
  {
    b_prim;
    b_oid = matching (fun h -> h = Dsl.Head_oid);
    b_lit = matching (fun h -> h = Dsl.Head_lit);
    b_abs = matching (fun h -> h = Dsl.Head_abs);
    b_var = matching (fun h -> h = Dsl.Head_var);
    b_any = matching (fun _ -> false);
  }

let dispatcher (b : buckets) : Rewrite.rule =
 fun a ->
  let bucket =
    match a.Term.func with
    | Term.Prim name -> (
      match Hashtbl.find_opt b.b_prim name with
      | Some pb ->
        let n = List.length a.Term.args in
        let slots = pb.pb_by_arity in
        let rec pick i =
          if i >= Array.length slots then pb.pb_generic
          else
            let m, bucket = slots.(i) in
            if m = n then bucket else pick (i + 1)
        in
        pick 0
      | None -> b.b_any)
    | Term.Lit (Literal.Oid _) -> b.b_oid
    | Term.Lit _ -> b.b_lit
    | Term.Abs _ -> b.b_abs
    | Term.Var _ -> b.b_var
  in
  try_bucket bucket a

(* Shape summary of the compiled table, for the E15 bench row. *)
type split_stats = {
  s_prim_buckets : int;  (* distinct prim head symbols *)
  s_arity_split : int;  (* prim buckets carrying >= 1 arity slot *)
  s_arity_slots : int;  (* arity slots across all prim buckets *)
  s_exact_rules : int;  (* bucket-level rules confined to one slot *)
  s_generic_rules : int;  (* bucket-level arity-agnostic rules *)
}

let split_stats rules =
  let b = compile_buckets rules in
  Hashtbl.fold
    (fun _ pb acc ->
      let slots = Array.length pb.pb_by_arity in
      let generic = Array.length pb.pb_generic in
      let exact =
        Array.fold_left (fun n (_, arr) -> n + Array.length arr - generic) 0 pb.pb_by_arity
      in
      {
        s_prim_buckets = acc.s_prim_buckets + 1;
        s_arity_split = (acc.s_arity_split + if slots > 0 then 1 else 0);
        s_arity_slots = acc.s_arity_slots + slots;
        s_exact_rules = acc.s_exact_rules + exact;
        s_generic_rules = acc.s_generic_rules + generic;
      })
    b.b_prim
    {
      s_prim_buckets = 0;
      s_arity_split = 0;
      s_arity_slots = 0;
      s_exact_rules = 0;
      s_generic_rules = 0;
    }

let compile rules = dispatcher (compile_buckets rules)

(* ------------------------------------------------------------------ *)
(* The rule registry                                                    *)
(* ------------------------------------------------------------------ *)

(* Rule providers (the query library, the reflective optimizer) register
   descriptors of every rule they can fire so the audit surface
   ([tmllint --rules], the obligation bundle) sees the full shipped set.
   Store-aware rules close over a runtime context; providers register a
   representative descriptor for them (the closure itself is never run by
   the audit). *)

let registry : (string, int * Dsl.rule) Hashtbl.t = Hashtbl.create 32
let reg_tick = ref 0

let register (r : Dsl.rule) =
  (match Hashtbl.find_opt registry r.Dsl.name with
  | Some (ord, _) -> Hashtbl.replace registry r.Dsl.name (ord, r)
  | None ->
    incr reg_tick;
    Hashtbl.replace registry r.Dsl.name (!reg_tick, r))

let register_all = List.iter register

let registered () =
  Hashtbl.fold (fun _ (ord, r) acc -> (ord, r) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
