open Tml_core
open Term

(* Global switch: when off, every consumer falls back to its pre-analysis
   behaviour (no effect-based rules, no inlining bonus, no analysis-gated
   hoisting).  Soundness gates such as [Alias.select_alias_ok] ignore it. *)
let enabled = ref true

(* Effect-based [remove]: delete a call whose result is dead and whose
   callee provably cannot be observed running.

     ((proc(v1..vn ce.. cc) B) a1..an k1.. (cont(x1..xm) K))
     -->  K

   when the continuation parameters x1..xm are unused in K and the callee
   body's inferred signature is Pure, terminating, fault-free and exits
   only through cc — with every jump to cc passing exactly m arguments, so
   deleting the call cannot also delete an arity fault.  This subsumes the
   paper's remove rule (which only strikes dead *value* bindings) for whole
   computations, and is exactly the rule the syntactic reduction pass
   cannot express: purity of B is a semantic property of everything B
   applies. *)
let effect_remove (a : app) =
  match a.func, List.rev a.args with
  | Abs f, Abs k :: _
    when List.length f.params = List.length a.args
         && Term.abs_kind k = `Cont
         && List.for_all (fun p -> not (Occurs.occurs_app p k.body)) k.params -> (
    match List.rev f.params with
    | cc :: _ when Ident.is_cont cc ->
      let s = (Infer.summarize Infer.empty_env f).Infer.body_sig in
      if
        s.Effsig.eff = Prim.Pure
        && (not s.Effsig.diverges)
        && (not s.Effsig.faults)
        && Effsig.exits_within s (Ident.Set.singleton cc)
        && Infer.jumps_with_arity cc (List.length k.params) f.body
      then Some k.body
      else None
    | _ -> None)
  | _ -> None

(* Named like every other domain rule: an anonymous fire would report as
   the fallback "domain" in provenance (and fault under
   [Rewrite.strict_names]). *)
let rules =
  [
    Rewrite.named ~fact:"callee pure, terminating, confined to cc" "a.effect-remove"
      effect_remove;
  ]

(* Inlining bonus: expansion pays off more often for bodies the analysis
   knows cannot mutate the store or loop — the reductions it enables
   (folding, dead-result removal) are not blocked by effects. *)
let inline_bonus (a : abs) =
  let s = Infer.strip (Infer.summarize Infer.empty_env a) in
  if s.Effsig.eff = Prim.Pure && not s.Effsig.diverges then 8
  else if Effsig.read_only s then 4
  else 0

(* Thread the analysis into an optimizer configuration: the effect-based
   rules join the domain rule set and the expansion pass consults effect
   signatures in its cost decisions. *)
let with_analysis (c : Optimizer.config) =
  if not !enabled then c
  else
    {
      c with
      Optimizer.rules = c.Optimizer.rules @ rules;
      expand = { c.Optimizer.expand with Expand.effect_bonus = Some inline_bonus };
    }
