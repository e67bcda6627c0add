open Term

type config = {
  inline_limit : int;
  y_inline_limit : int;
  growth_limit : int;
  expand_y : bool;
  effect_bonus : (Term.abs -> int) option;
}

let default =
  {
    inline_limit = 40;
    y_inline_limit = 20;
    growth_limit = 512;
    expand_y = false;
    effect_bonus = None;
  }

type binding = {
  b_abs : abs;
  b_recursive : bool;
}

type result = {
  term : Term.app;
  growth : int;
  expansions : int;
}

let expand_app cfg (root : app) =
  let growth = ref 0 in
  let expansions = ref 0 in
  let decide (b : binding) args =
    let sz = Term.size_app b.b_abs.body in
    let savings = Cost.inline_savings ~body:b.b_abs.body ~args in
    let limit = if b.b_recursive then cfg.y_inline_limit else cfg.inline_limit in
    (* the effect bonus (an analysis hook; see Tml_analysis.Bridge) only
       matters — and is only computed — when the plain size test fails *)
    let bonus =
      if sz - savings <= limit then 0
      else match cfg.effect_bonus with None -> 0 | Some f -> f b.b_abs
    in
    sz - savings - bonus <= limit && !growth + sz <= cfg.growth_limit
  in
  let rec go_app env (a : app) =
    (* Collect bindings contributed by this node: a surviving β-redex binds
       multi-use abstractions; a Y application binds the members of its
       recursive nest. *)
    let env =
      match a.func, a.args with
      | Abs f, args when List.length f.params = List.length args ->
        List.fold_left2
          (fun env p arg ->
            match arg with
            | Abs fa -> Ident.Map.add p { b_abs = fa; b_recursive = false } env
            | Lit _ | Var _ | Prim _ -> env)
          env f.params args
      | Prim "Y", [ binder ] when cfg.expand_y -> (
        match Primitives.y_split binder with
        | Some (_, vs, _, _, abss) ->
          List.fold_left2
            (fun env v abs_v ->
              match abs_v with
              | Abs fa -> Ident.Map.add v { b_abs = fa; b_recursive = true } env
              | Lit _ | Var _ | Prim _ -> env)
            env vs abss
        | None -> env)
      | _ -> env
    in
    (* Inline at this call site if the heuristics approve. *)
    let func =
      match a.func with
      | Var p -> (
        match Ident.Map.find_opt p env with
        | Some b when List.length b.b_abs.params = List.length a.args ->
          let ok = decide b a.args in
          if !Tml_obs.Trace.enabled then
            Tml_obs.Events.expand_site ~accepted:ok ~site:p.Ident.name
              ~body_size:(Term.size_app b.b_abs.body) ~growth:!growth
              ~growth_limit:cfg.growth_limit;
          if ok then begin
            let copy = Alpha.freshen_value (Abs b.b_abs) in
            growth := !growth + Term.size_value copy;
            incr expansions;
            copy
          end
          else a.func
        | _ -> a.func)
      | v -> v
    in
    let func' = go_value env func in
    let args' = Term.map_sharing (go_value env) a.args in
    (* preserve physical identity when nothing was inlined below:
       unchanged subtrees stay shared instead of being copied *)
    if func' == a.func && args' == a.args then a else { func = func'; args = args' }
  and go_value env v =
    match v with
    | Abs f ->
      let body = go_app env f.body in
      if body == f.body then v else Abs { f with body }
    | Lit _ | Var _ | Prim _ -> v
  in
  let term = go_app Ident.Map.empty root in
  { term; growth = !growth; expansions = !expansions }
