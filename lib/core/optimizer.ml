type config = {
  max_rounds : int;
  penalty_limit : int;
  expand : Expand.config;
  rules : Rewrite.rule list;
  max_steps : int;
  validate : bool;
}

exception Validation_error of string

let default =
  {
    max_rounds = 8;
    penalty_limit = 2048;
    expand = Expand.default;
    rules = [];
    max_steps = 200_000;
    validate = false;
  }

let o1 = { default with max_rounds = 1 }
let o2 = default

let o3 =
  {
    default with
    max_rounds = 12;
    expand = { Expand.default with expand_y = true; growth_limit = 1024 };
  }

let with_rules config rules = { config with rules = config.rules @ rules }

type report = {
  rounds : int;
  penalty : int;
  stats : Rewrite.stats;
  expansions : int;
  size_before : int;
  size_after : int;
  cost_before : int;
  cost_after : int;
  prov : Tml_obs.Provenance.t;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>rounds: %d, penalty: %d, expansions: %d@,size: %d -> %d, static cost: %d -> %d@,%a@]"
    r.rounds r.penalty r.expansions r.size_before r.size_after r.cost_before r.cost_after
    Rewrite.pp_stats r.stats

(* ------------------------------------------------------------------ *)
(* Provenance / tracing support                                         *)
(* ------------------------------------------------------------------ *)

(* Stamp-free rendering of a redex head.  Substitution allocates fresh
   stamps, so a stamped rendering would differ between an optimizer run
   and its replay; the base name alone is deterministic. *)
let head_name (v : Term.value) =
  match v with
  | Term.Prim p -> "(" ^ p ^ " ...)"
  | Term.Var id -> "(" ^ id.Ident.name ^ " ...)"
  | Term.Lit l -> "(" ^ Literal.to_string l ^ " ...)"
  | Term.Abs a -> Printf.sprintf "(proc/%d ...)" (List.length a.Term.params)

let site_of_redex = function
  | Rewrite.Rapp (b, _) -> head_name b.Term.func
  | Rewrite.Rvalue (b, _) -> head_name b

(* Deltas are measured on the rewritten subtree only.  [Term.size_*] /
   [Cost.*] walk the subtree, so this costs O(|redex|) per fire — paid
   only while tracing or provenance recording is on. *)
let deltas_of_redex = function
  | Rewrite.Rapp (b, a) ->
    (Term.size_app b, Term.size_app a, Cost.app_cost b, Cost.app_cost a)
  | Rewrite.Rvalue (b, a) ->
    (Term.size_value b, Term.size_value a, Cost.value_cost b, Cost.value_cost a)

(* Install a [Rewrite.fire_hook] feeding the provenance buffer and the
   trace stream, chaining to any hook already present (nested optimizer
   invocations), and run [f] with it in place. *)
let with_fire_hook prov f =
  let tracing = !Tml_obs.Trace.enabled in
  if (not tracing) && prov = None then f ()
  else begin
    let saved = !Rewrite.fire_hook in
    Rewrite.fire_hook :=
      Some
        (fun ~rule ~fact redex ->
          let site = site_of_redex redex in
          let sb, sa, cb, ca = deltas_of_redex redex in
          (match prov with
          | Some p ->
            Tml_obs.Provenance.add p
              {
                Tml_obs.Provenance.pv_rule = rule;
                pv_site = site;
                pv_fact = fact;
                pv_size_delta = sa - sb;
                pv_cost_delta = ca - cb;
              }
          | None -> ());
          if tracing then
            Tml_obs.Events.rule_fire ~rule ~fact ~site ~size_before:sb ~size_after:sa
              ~cost_before:cb ~cost_after:ca;
          match saved with
          | Some g -> g ~rule ~fact redex
          | None -> ());
    Fun.protect ~finally:(fun () -> Rewrite.fire_hook := saved) f
  end

(* Translation validation of one optimizer pass (enabled by
   [config.validate]): the rewritten tree must still be well-formed, must
   not acquire free identifiers the input did not have, and the pass's own
   accounting must agree with the tree it produced.  Violations indicate a
   broken rewrite rule (most likely a domain rule) and raise
   [Validation_error] rather than silently corrupting the program. *)
let validation_failed ~phase ~round fmt =
  Format.kasprintf
    (fun msg ->
      raise (Validation_error (Printf.sprintf "round %d, %s pass: %s" round phase msg)))
    fmt

let validate_pass ~config ~frees0 ~phase ~round ~before ~after ~growth =
  (match
     Wf.check_app ~free_allowed:(fun id -> Ident.Set.mem id (Lazy.force frees0)) after
   with
  | Ok () -> ()
  | Error errs ->
    let msg =
      match errs with
      | e :: _ -> Format.asprintf "%a" Wf.pp_error e
      | [] -> "ill-formed"
    in
    validation_failed ~phase ~round "%s" msg);
  (match growth with
  | Some (g, expansions) ->
    (* the expansion pass replaces one [Var] node per expansion by a copy
       whose size it adds to [growth], so its accounting is exact *)
    let actual = Term.size_app after - Term.size_app before in
    if actual <> g - expansions then
      validation_failed ~phase ~round
        "growth accounting mismatch: reported %d over %d expansions, actual size delta %d" g
        expansions actual
  | None ->
    (* the core reduction rules strictly shrink the tree and never increase
       the static cost; domain rules (inlining, index selection) may
       legitimately trade size for speed, so the accounting check only
       applies to the pure-core configuration *)
    if config.rules = [] then begin
      if Term.size_app after > Term.size_app before then
        validation_failed ~phase ~round "reduction grew the tree: %d -> %d"
          (Term.size_app before) (Term.size_app after);
      if Cost.app_cost after > Cost.app_cost before then
        validation_failed ~phase ~round "reduction increased static cost: %d -> %d"
          (Cost.app_cost before) (Cost.app_cost after)
    end)

let optimize_app ?(config = default) (a : Term.app) =
  let stats = Rewrite.fresh_stats () in
  let size_before = Term.size_app a in
  let cost_before = Cost.app_cost a in
  let expansions = ref 0 in
  let prov = if !Tml_obs.Provenance.enabled then Some (Tml_obs.Provenance.create ()) else None in
  let prov_add rule site fact size_delta cost_delta =
    match prov with
    | Some p ->
      Tml_obs.Provenance.add p
        {
          Tml_obs.Provenance.pv_rule = rule;
          pv_site = site;
          pv_fact = fact;
          pv_size_delta = size_delta;
          pv_cost_delta = cost_delta;
        }
    | None -> ()
  in
  let frees0 = lazy (Term.free_vars_app a) in
  let validate = validate_pass ~config ~frees0 in
  let reduce a =
    Tml_obs.Trace.with_span ~cat:"optimizer" "reduce" (fun () ->
        Profile.timed Profile.Reduce (fun () ->
            Rewrite.reduce_app ~stats ~rules:config.rules ~max_steps:config.max_steps a))
  in
  (* The penalty budget bounds cumulative expansion growth.  Running out
     used to be silent — the loop just stopped expanding — which made
     truncated optimizations indistinguishable from converged ones.  Now
     it is recorded in the profile, the trace and the derivation log. *)
  let budget_exhausted round penalty =
    if !Profile.enabled then Profile.record_budget_exhausted ();
    Tml_obs.Events.budget_exhausted ~round ~penalty ~limit:config.penalty_limit;
    prov_add "budget-exhausted"
      (Printf.sprintf "round %d" round)
      (Printf.sprintf "penalty %d >= limit %d" penalty config.penalty_limit)
      0 0
  in
  let rec loop round penalty a =
    let a' = reduce a in
    if config.validate then
      Profile.timed Profile.Validate (fun () ->
          validate ~phase:"reduction" ~round ~before:a ~after:a' ~growth:None);
    let a = a' in
    if round >= config.max_rounds || penalty >= config.penalty_limit then begin
      if penalty >= config.penalty_limit then budget_exhausted round penalty;
      a, round, penalty
    end
    else begin
      let r =
        Tml_obs.Trace.with_span ~cat:"optimizer" "expand" (fun () ->
            Profile.timed Profile.Expand (fun () -> Expand.expand_app config.expand a))
      in
      if r.expansions = 0 then a, round, penalty
      else begin
        if config.validate then
          Profile.timed Profile.Validate (fun () ->
              validate ~phase:"expansion" ~round ~before:a ~after:r.term
                ~growth:(Some (r.growth, r.expansions)));
        expansions := !expansions + r.expansions;
        (* the deltas walk both terms twice: only pay for them when a
           derivation is being recorded *)
        if prov <> None then
          prov_add "expand"
            (Printf.sprintf "%d call sites" r.expansions)
            ""
            (Term.size_app r.term - Term.size_app a)
            (Cost.app_cost r.term - Cost.app_cost a);
        (* each round of the reduction/expansion phases accumulates a
           penalty proportional to the growth it caused *)
        loop (round + 1) (penalty + r.growth + r.expansions) r.term
      end
    end
  in
  let a', rounds, penalty = with_fire_hook prov (fun () -> loop 1 0 a) in
  if !Profile.enabled then begin
    Profile.record_call ();
    Profile.record_fires stats
  end;
  let report =
    {
      rounds;
      penalty;
      stats;
      expansions = !expansions;
      size_before;
      size_after = Term.size_app a';
      cost_before;
      cost_after = Cost.app_cost a';
      prov = (match prov with Some p -> Tml_obs.Provenance.contents p | None -> []);
    }
  in
  a', report

let optimize_value ?(config = default) (v : Term.value) =
  match v with
  | Term.Abs f ->
    let body, report = optimize_app ~config f.body in
    (* η-reduction may apply to the rebuilt abstraction itself *)
    let v' = Term.Abs { f with body } in
    let v', report =
      match Rewrite.try_eta ~stats:report.stats v' with
      | Some v'' ->
        let report =
          if !Tml_obs.Provenance.enabled then
            {
              report with
              prov =
                report.prov
                @ [
                    {
                      Tml_obs.Provenance.pv_rule = "eta";
                      pv_site = head_name v';
                      pv_fact = "";
                      pv_size_delta = Term.size_value v'' - Term.size_value v';
                      pv_cost_delta = Cost.value_cost v'' - Cost.value_cost v';
                    };
                  ];
            }
          else report
        in
        v'', report
      | None -> v', report
    in
    if config.validate then begin
      let frees0 = Term.free_vars_value v in
      match
        Wf.check_value ~free_allowed:(fun id -> Ident.Set.mem id frees0) v'
      with
      | Ok () -> ()
      | Error (e :: _) ->
        raise (Validation_error (Format.asprintf "final value: %a" Wf.pp_error e))
      | Error [] -> raise (Validation_error "final value: ill-formed")
    end;
    v', report
  | Term.Lit _ | Term.Var _ | Term.Prim _ ->
    ( v,
      {
        rounds = 0;
        penalty = 0;
        stats = Rewrite.fresh_stats ();
        expansions = 0;
        size_before = Term.size_value v;
        size_after = Term.size_value v;
        cost_before = Cost.value_cost v;
        cost_after = Cost.value_cost v;
        prov = [];
      } )

(* ------------------------------------------------------------------ *)
(* Provenance replay                                                    *)
(* ------------------------------------------------------------------ *)

(* A derivation log is a faithful record exactly when re-optimizing the
   pre-term under the same configuration reproduces both the optimized
   term (up to α-equivalence — substitution mints fresh stamps) and the
   log itself.  This is the check behind the provenance property test
   and `--explain` tooling. *)
let replay ?(config = default) (pre : Term.value) (log : Tml_obs.Provenance.t) =
  let saved = !Tml_obs.Provenance.enabled in
  Tml_obs.Provenance.enabled := true;
  let v', report =
    Fun.protect
      ~finally:(fun () -> Tml_obs.Provenance.enabled := saved)
      (fun () -> optimize_value ~config pre)
  in
  if Tml_obs.Provenance.equal report.prov log then Ok v'
  else
    Error
      (Printf.sprintf "derivation mismatch: recorded %d steps, replay produced %d steps"
         (List.length log) (List.length report.prov))
