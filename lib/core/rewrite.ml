open Term

type stats = {
  mutable subst : int;
  mutable remove : int;
  mutable reduce : int;
  mutable eta : int;
  mutable fold : int;
  mutable case_subst : int;
  mutable y_remove : int;
  mutable y_reduce : int;
  mutable domain : int;
}

let fresh_stats () =
  {
    subst = 0;
    remove = 0;
    reduce = 0;
    eta = 0;
    fold = 0;
    case_subst = 0;
    y_remove = 0;
    y_reduce = 0;
    domain = 0;
  }

let total s =
  s.subst + s.remove + s.reduce + s.eta + s.fold + s.case_subst + s.y_remove + s.y_reduce
  + s.domain

let pp_stats ppf s =
  Format.fprintf ppf
    "subst=%d remove=%d reduce=%d eta=%d fold=%d case-subst=%d Y-remove=%d Y-reduce=%d domain=%d"
    s.subst s.remove s.reduce s.eta s.fold s.case_subst s.y_remove s.y_reduce s.domain

type rule = Term.app -> Term.app option

(* ------------------------------------------------------------------ *)
(* Observability hook                                                   *)
(* ------------------------------------------------------------------ *)

(* The optimizer (and only the optimizer) installs [fire_hook] while
   tracing or provenance recording is on; the reduction pass reports
   every successful rule application through it with the before/after
   redex.  Domain rules are anonymous functions, so they identify
   themselves via [note_rule] (usually through the [named] wrapper)
   just before returning [Some]; [try_domain] clears the note before
   each attempt and reads it after a hit. *)

type redex = Rapp of Term.app * Term.app | Rvalue of Term.value * Term.value

let fire_hook : (rule:string -> fact:string -> redex -> unit) option ref = ref None

let noted : (string * string) option ref = ref None
let note_rule ?(fact = "") name = noted := Some (name, fact)

let named ?fact name rule a =
  match rule a with
  | Some _ as r ->
    note_rule ?fact name;
    r
  | None -> None

(* ------------------------------------------------------------------ *)
(* Per-rule fire accounting                                             *)
(* ------------------------------------------------------------------ *)

(* [stats.domain] lumps every domain-rule application together; the
   ["rules"] source of the metrics registry keeps one cell per noted
   provenance name, so [tmlsh :stats] and [tmlc --profile] can attribute
   optimization work rule by rule.  Unnoted fires land under the fallback
   name "domain" — and fault in strict mode, which the differential test
   battery turns on to guarantee no anonymous rule fires. *)

exception Unnamed_rule_fire

let anonymous_rule_name = "domain"

let strict_names = ref false

let count_fire name = Tml_obs.Metrics.(inc (counter ~source:"rules" name))

let fire rule before after =
  match !fire_hook with
  | Some f -> f ~rule ~fact:"" (Rapp (before, after))
  | None -> ()

let dummy_stats = fresh_stats ()

(* ------------------------------------------------------------------ *)
(* subst / remove / reduce                                              *)
(* ------------------------------------------------------------------ *)

let try_beta ?(stats = dummy_stats) (a : app) =
  match a.func with
  | Abs { params = []; body } when a.args = [] ->
    (* reduce: an application binding no variables is its body *)
    stats.reduce <- stats.reduce + 1;
    Some body
  | Abs f when List.length f.params = List.length a.args ->
    let counts = Occurs.count_all_app f.body in
    let count p = Option.value ~default:0 (Ident.Tbl.find_opt counts p) in
    let classify p arg =
      let c = count p in
      if c = 0 then `Remove
      else if Term.is_trivial arg || c = 1 then `Subst
      else `Keep
    in
    let decisions = List.map2 (fun p arg -> p, arg, classify p arg) f.params a.args in
    let n_subst = List.length (List.filter (fun (_, _, d) -> d = `Subst) decisions) in
    let n_remove = List.length (List.filter (fun (_, _, d) -> d = `Remove) decisions) in
    if n_subst = 0 && n_remove = 0 then None
    else begin
      let env =
        List.fold_left
          (fun env (p, arg, d) -> if d = `Subst then Ident.Map.add p arg env else env)
          Ident.Map.empty decisions
      in
      let body = Subst.app_many env f.body in
      let kept = List.filter (fun (_, _, d) -> d = `Keep) decisions in
      stats.subst <- stats.subst + n_subst;
      stats.remove <- stats.remove + n_remove;
      if kept = [] then begin
        stats.reduce <- stats.reduce + 1;
        Some body
      end
      else
        Some
          {
            func = Abs { params = List.map (fun (p, _, _) -> p) kept; body };
            args = List.map (fun (_, arg, _) -> arg) kept;
          }
    end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* fold                                                                 *)
(* ------------------------------------------------------------------ *)

let try_fold ?(stats = dummy_stats) (a : app) =
  match a.func with
  | Prim name -> (
    match Prim.find name with
    | Some d when d.attrs.can_fold -> (
      match d.meta_eval a with
      | Some a' ->
        stats.fold <- stats.fold + 1;
        Some a'
      | None -> None)
    | Some _ | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* case-subst                                                           *)
(* ------------------------------------------------------------------ *)

let try_case_subst ?(stats = dummy_stats) (a : app) =
  match a.func with
  | Prim "==" -> (
    match Primitives.case_split a.args with
    | Some (Var v, tags, branches, default) ->
      (* Substitute the known tag value for the scrutinee inside each
         branch; only literal tags give new information. *)
      let changed = ref false in
      let branches' =
        List.map2
          (fun tag branch ->
            match tag, branch with
            | Lit _, Abs b when Occurs.occurs_app v b.body ->
              changed := true;
              Abs { b with body = Subst.app v ~by:tag b.body }
            | _ -> branch)
          tags branches
      in
      if !changed then begin
        stats.case_subst <- stats.case_subst + 1;
        let args =
          (Var v :: tags)
          @ branches'
          @ (match default with
            | Some d -> [ d ]
            | None -> [])
        in
        Some { a with args }
      end
      else None
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Y-remove / Y-reduce                                                  *)
(* ------------------------------------------------------------------ *)

let try_y ?(stats = dummy_stats) (a : app) =
  match a.func, a.args with
  | Prim "Y", [ binder ] -> (
    match Primitives.y_split binder with
    | None -> None
    | Some (c0, vs, c, k0, abss) -> (
      let k0_body =
        match k0 with
        | Abs { body; _ } -> body
        | _ -> assert false
      in
      (* Y-reduce: an empty fixpoint whose entry continuation ignores c0. *)
      if vs = [] && not (Occurs.occurs_app c0 k0_body) then begin
        stats.y_reduce <- stats.y_reduce + 1;
        Some k0_body
      end
      else begin
        (* Y-remove: strike out every v_i referenced neither by the entry
           continuation's body nor by any *other* member of the nest. *)
        let items = List.combine vs abss in
        let used_elsewhere (v, _) =
          Occurs.occurs_app v k0_body
          || List.exists
               (fun (v', abs') -> (not (Ident.equal v v')) && Occurs.occurs_value v abs')
               items
        in
        let kept = List.filter used_elsewhere items in
        let n_removed = List.length items - List.length kept in
        if n_removed = 0 then None
        else begin
          stats.y_remove <- stats.y_remove + n_removed;
          if kept = [] && not (Occurs.occurs_app c0 k0_body) then begin
            (* removal emptied the nest: Y-reduce immediately *)
            stats.y_reduce <- stats.y_reduce + 1;
            Some k0_body
          end
          else
            let params = (c0 :: List.map fst kept) @ [ c ] in
            let body = { func = Var c; args = k0 :: List.map snd kept } in
            Some { a with args = [ Abs { params; body } ] }
        end
      end))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* η-reduce (a rule on abstraction values)                              *)
(* ------------------------------------------------------------------ *)

(* η must not expose a primitive with a primitive-specific argument shape
   (["=="], ["Y"]): their applications cannot be decomposed into values and
   continuations once the static shape is gone. *)
let eta_safe_func = function
  | Prim name -> (
    match Prim.find name with
    | Some d -> d.cont_arity <> None && name <> "Y"
    | None -> false)
  | Lit _ | Var _ | Abs _ -> true

let try_eta ?(stats = dummy_stats) (v : value) =
  match v with
  | Abs { params; body } when eta_safe_func body.func ->
    let args_are_params =
      List.length body.args = List.length params
      && List.for_all2
           (fun p arg ->
             match arg with
             | Var id -> Ident.equal id p
             | _ -> false)
           params body.args
    in
    if
      args_are_params
      && not (List.exists (fun p -> Occurs.occurs_value p body.func) params)
    then begin
      stats.eta <- stats.eta + 1;
      Some body.func
    end
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The reduction pass                                                   *)
(* ------------------------------------------------------------------ *)

exception Out_of_fuel

let default_max_steps = 200_000

let reduce ?(stats = dummy_stats) ?(rules = []) ?(max_steps = default_max_steps) () =
  let fuel = ref max_steps in
  let spend () =
    decr fuel;
    if !fuel < 0 then raise Out_of_fuel
  in
  let try_domain a =
    let rec go = function
      | [] -> None
      | rule :: rest -> (
        noted := None;
        match rule a with
        | Some a' ->
          stats.domain <- stats.domain + 1;
          let name, fact =
            Option.value ~default:(anonymous_rule_name, "") !noted
          in
          if !strict_names && String.equal name anonymous_rule_name then
            raise Unnamed_rule_fire;
          count_fire name;
          (match !fire_hook with
          | Some f -> f ~rule:name ~fact (Rapp (a, a'))
          | None -> ());
          Some a'
        | None -> go rest)
    in
    go rules
  in
  (* One top-level step at an application node. *)
  let step a =
    match try_beta ~stats a with
    | Some a' ->
      fire "beta" a a';
      Some a'
    | None -> (
      match try_fold ~stats a with
      | Some a' ->
        fire "fold" a a';
        Some a'
      | None -> (
        match try_case_subst ~stats a with
        | Some a' ->
          fire "case-subst" a a';
          Some a'
        | None -> (
          match try_y ~stats a with
          | Some a' ->
            fire "y" a a';
            Some a'
          | None -> try_domain a)))
  in
  let rec norm_app a =
    match step a with
    | Some a' ->
      spend ();
      norm_app a'
    | None ->
      let a' =
        match a.func, a.args with
        | Prim "Y", [ Abs binder ] ->
          (* The members of a Y nest must stay literal abstractions (the
             canonical shape the Y rules, the code generator and the
             evaluator rely on), so η-reduction is not applied at their top
             level. *)
          let body = binder.body in
          let args' = Term.map_sharing norm_value_no_eta body.args in
          if args' == body.args then a
          else
            { a with args = [ Abs { binder with body = { body with args = args' } } ] }
        | _ ->
          let func = norm_value a.func in
          let args = Term.map_sharing norm_value a.args in
          if func == a.func && args == a.args then a else { func; args }
      in
      (* Normalizing children can enable rules at this node (e.g. folding a
         branch away makes a parameter single-use). *)
      (match step a' with
      | Some a'' ->
        spend ();
        norm_app a''
      | None -> a')
  and norm_value_no_eta v =
    match v with
    | Lit _ | Var _ | Prim _ -> v
    | Abs a ->
      let body = norm_app a.body in
      if body == a.body then v else Abs { a with body }
  and norm_value v =
    match v with
    | Lit _ | Var _ | Prim _ -> v
    | Abs a -> (
      let body = norm_app a.body in
      let v' = if body == a.body then v else Abs { a with body } in
      match try_eta ~stats v' with
      | Some v'' ->
        (match !fire_hook with
        | Some f -> f ~rule:"eta" ~fact:"" (Rvalue (v', v''))
        | None -> ());
        spend ();
        v''
      | None -> v')
  in
  norm_app, norm_value

let reduce_app ?stats ?rules ?max_steps a =
  let norm_app, _ = reduce ?stats ?rules ?max_steps () in
  norm_app a

let reduce_value ?stats ?rules ?max_steps v =
  let _, norm_value = reduce ?stats ?rules ?max_steps () in
  norm_value v
