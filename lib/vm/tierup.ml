(* Profile-guided promotion of hot code units to the compiled closure
   tier ({!Jit}).

   Tier state lives on the code unit ({!Instr.unit_code}, one per
   function nest), not in tables keyed by OID: the unit's heat (closure
   entries the machine counted) and its compiled form, which {!Jit}
   keeps in the unit's own slot.  The machine's [Mclosure] case asks
   {!hot}: a compiled unit answers at once; otherwise, while the policy
   is [enabled], the entry heats the unit, and the entry that brings it
   to [call_threshold] compiles it.  In CPS every loop iteration is a
   closure application, so a loop heats its unit even inside a function
   called once; a stored-function call reaches the same case through
   {!Compile.compile_func}.

   Promotion never changes semantics — the compiled tier charges the
   same abstract instruction costs at the same points as the machine —
   and compiled code is a function of the unit's immutable bytecode
   only.  A rebinding or re-optimization installs a new function object
   with a new unit, which starts cold; installing it moves the heap's
   generation, the one key of the per-site inline caches inside
   compiled code.  So a fresh heap's units start cold, a dropped heap
   takes its compiled code with it, and nothing has to be cleared by
   hand.

   A deopt is a function's code being replaced while its unit runs
   compiled ({!retire}); {!repromote} compiles the re-optimized code at
   once, so a hot function does not re-heat from zero. *)

(* policy knobs; see docs/TIERS.md *)
let enabled = ref false
let call_threshold = ref 32

let promote (u : Instr.unit_code) =
  ignore (Jit.compile_unit u);
  Tml_obs.Metrics.inc Jit.promotions;
  Tml_obs.Events.tier `Promote ~name:u.Instr.funcs.(u.Instr.entry).Instr.fn_name

let hot (u : Instr.unit_code) =
  if Jit.is_compiled u then true
  else if not !enabled then false
  else begin
    u.Instr.heat <- u.Instr.heat + 1;
    u.Instr.heat >= !call_threshold && (promote u; true)
  end

let run ctx (c : Value.mclosure) args =
  let u = c.Value.m_unit in
  Tml_obs.Metrics.inc Jit.runs;
  Jit.apply_func (Jit.compile_unit u) ~fn:c.Value.m_fn ~env:c.Value.m_env ctx args

let force_promote ctx oid =
  let reject () =
    Tml_obs.Metrics.inc Jit.rejections;
    false
  in
  match Value.Heap.get_opt ctx.Runtime.heap oid with
  | Some (Value.Func fo) -> (
    match Compile.compile_func ctx fo with
    | Value.Mclosure c ->
      if not (Jit.is_compiled c.Value.m_unit) then promote c.Value.m_unit;
      true
    | _ ->
      (* η-reduced to a primitive or literal: nothing to compile *)
      reject ()
    | exception Runtime.Fault _ -> reject ())
  | _ -> false

let retire (fo : Value.func_obj) =
  match fo.Value.fo_code with
  | Some u when Jit.is_compiled u ->
    Tml_obs.Metrics.inc Jit.deopts;
    Tml_obs.Events.tier `Deopt ~name:fo.Value.fo_name;
    true
  | _ -> false

let repromote ctx ~was oid = if retire was then ignore (force_promote ctx oid)

let register_metrics () = ()
