open Tml_core

(* Closure-compiling execution tier.

   [compile_unit] translates a compiled unit's bytecode into a tree of
   native OCaml closures — "template compilation": every [Instr.code]
   node becomes one closure, operands become pre-resolved accessors, and
   the interpretive dispatch of {!Machine.exec} disappears.  No code is
   generated on disk; the compiled form lives only in this process and
   is rebuilt on demand, which is exactly the right trade for persistent
   intermediate code (the store keeps TML/bytecode, the tier is a cache).

   Correctness is by construction: compiled code manipulates the same
   [Value.t] representation as the machine (closures are ordinary
   [Mclosure]s over the same physical [unit_code], continuation blocks
   are ordinary [Mblock]s), so any value may flow freely between tiers,
   and any case the compiler does not handle escapes to the machine via
   {!escape_apply}.  The tier also charges {e exactly} the same abstract
   instruction costs at the same points as the machine — step counts and
   fuel behaviour are observably identical, which the differential
   oracle battery ({!Tml_check.Oracle}) and the cram tests rely on.
   Where two consecutive charges have no possible fault or observation
   point between them (a primitive whose continuations are statically
   well-formed inline blocks), they are folded into one charge of the
   summed cost: the step total at every observable point, including the
   fuel-exhaustion boundary, is unchanged.

   Primitive fast paths (integer arithmetic/comparison, array access,
   [==] dispatch, …) inline the standard implementations without
   consing argument lists.  Each fast path is gated at compile time on
   {!Runtime.is_standard_impl}: if the registered implementation is not
   the exact closure [Runtime.install] registered, the generic dispatch
   (which consults the registry like the machine does) is used instead.
   An override registered {e after} a unit was compiled is not seen by
   already-compiled fast paths — documented in docs/TIERS.md.

   Call sites and array primitives carry {e per-site monomorphic inline
   caches}: the last continuation block's compiled code, the last
   [Oidv] callee's compiled entry, the last dereferenced array's slots.
   Caches are validated by physical equality plus the heap's
   {!Value.Heap.generation}, which every slot replacement, eviction and
   truncation moves: a rebinding or a re-optimization installs a new
   function object with [Heap.set], and a store drops a stale object
   with [Heap.evict].  Reads fire no hook, so caches fill in
   store-backed heaps too; the [[:=]] fast path reports each write
   ({!Value.Heap.note_write}) like the machine's primitive does. *)

type ccode = Runtime.ctx -> Value.t array -> Value.t array -> Eval.outcome

type centry = {
  c_name : string;
  c_arity : int;
  c_nregs : int;  (** >= 1, frame size *)
  mutable c_body : ccode;
}

type cunit = {
  src : Instr.unit_code;
  mutable funcs : centry array;
  mutable blocks : (Instr.code * ccode) list;
      (** compiled continuation blocks, keyed by physical [Cblock] body *)
}

(* a compiled continuation slot of a [Primop] *)
type csink =
  | Sblock of int array * Instr.code * ccode
  | Sval of (Value.t array -> Value.t array -> Value.t)

(* Installed by {!Machine} at load time: full applicator for values the
   compiled tier hands back to the interpreter. *)
let escape_apply : (Runtime.ctx -> Value.t -> Value.t list -> Eval.outcome) ref =
  ref (fun _ _ _ -> Runtime.fault "jit: no machine escape installed")

(* the compiled form lives in the unit's own slot *)
type Instr.compiled += Compiled of cunit

let is_compiled (u : Instr.unit_code) =
  match u.Instr.compiled with
  | Compiled _ -> true
  | _ -> false

(* the ["tier"] source's cells, in the order its report lists them:
   {!Tierup} counts the first four, [compile_unit] the last *)
let promotions = Tml_obs.Metrics.counter ~source:"tier" "promotions"
let deopts = Tml_obs.Metrics.counter ~source:"tier" "deopts"
let runs = Tml_obs.Metrics.counter ~source:"tier" "runs"
let rejections = Tml_obs.Metrics.counter ~source:"tier" "rejections"
let compiled_units = Tml_obs.Metrics.counter ~source:"tier" "compiled_units"

(* shared boxes for the hottest results; [Value.identical] is structural
   on immediates, so sharing is unobservable *)
let int_cache = Array.init 1281 (fun i -> Value.Int (i - 128))

let mk_int i =
  if i >= -128 && i <= 1152 then Array.unsafe_get int_cache (i + 128) else Value.Int i

let v_true = Value.Bool true
let v_false = Value.Bool false
let mk_bool b = if b then v_true else v_false

(* a frame is allocated on every call and frames are small: literal
   allocations (inline) beat [Array.make]'s C call for common sizes *)
let u = Value.Unit

let alloc_frame = function
  | 1 -> [| u |]
  | 2 -> [| u; u |]
  | 3 -> [| u; u; u |]
  | 4 -> [| u; u; u; u |]
  | 5 -> [| u; u; u; u; u |]
  | 6 -> [| u; u; u; u; u; u |]
  | 7 -> [| u; u; u; u; u; u; u |]
  | 8 -> [| u; u; u; u; u; u; u; u |]
  | 9 -> [| u; u; u; u; u; u; u; u; u |]
  | 10 -> [| u; u; u; u; u; u; u; u; u; u |]
  | n -> Array.make n u

(* never-matching sentinels for empty inline caches *)
let dummy_code = Instr.Tailcall (Instr.Reg 0, [])
let dummy_ccode : ccode = fun _ _ _ -> assert false
let dummy_heap = Value.Heap.create ()
let dummy_unit = Instr.make_unit [||] 0

let dummy_centry : centry =
  { c_name = ""; c_arity = -1; c_nregs = 1; c_body = dummy_ccode }

let prim_cost name =
  match Prim.find name with
  | Some d -> d.Prim.base_cost
  | None -> 1

let register_block cu code cc =
  if not (List.exists (fun (c, _) -> c == code) cu.blocks) then
    cu.blocks <- (code, cc) :: cu.blocks

let find_block cu code =
  let rec scan = function
    | [] -> None
    | (c, cc) :: rest -> if c == code then Some cc else scan rest
  in
  scan cu.blocks

(* operands are pure; accessors may be pre-resolved and constants shared *)
let comp_operand : Instr.operand -> Value.t array -> Value.t array -> Value.t = function
  | Instr.Reg r -> fun _env frame -> frame.(r)
  | Instr.Env e -> fun env _frame -> env.(e)
  | Instr.Const l ->
    let v = Value.of_literal l in
    fun _env _frame -> v
  | Instr.Primconst name ->
    let v = Value.Primv name in
    fun _env _frame -> v

(* Compact capture descriptors: closure creation is a hot allocation
   site, so environments are filled by tag dispatch rather than through
   per-capture accessor closures. *)
type cap = Cfrm of int | Cenv of int | Cconst of Value.t

let comp_cap : Instr.operand -> cap = function
  | Instr.Reg r -> Cfrm r
  | Instr.Env e -> Cenv e
  | Instr.Const l -> Cconst (Value.of_literal l)
  | Instr.Primconst name -> Cconst (Value.Primv name)

let cap_get env frame = function
  | Cfrm r -> frame.(r)
  | Cenv e -> env.(e)
  | Cconst v -> v

let cap_env caps env frame =
  let n = Array.length caps in
  if n = 0 then [||]
  else begin
    let e = Array.make n Value.Unit in
    for i = 0 to n - 1 do
      Array.unsafe_set e i (cap_get env frame (Array.unsafe_get caps i))
    done;
    e
  end

(* [caps] is [Cenv 0; Cenv 1; …; Cenv (n-1)]: the new environment is a
   prefix copy of the enclosing one *)
let identity_prefix caps =
  let n = Array.length caps in
  let rec go i =
    i = n
    ||
    match Array.unsafe_get caps i with
    | Cenv e when e = i -> go (i + 1)
    | _ -> false
  in
  n > 0 && go 0

(* compile-time specialized builders for the common small environments:
   the array is allocated initialized, with no per-capture dispatch.
   An identity-prefix capture set shares the enclosing environment array
   outright: environments are immutable once any code in their nest
   runs, compiled code reads only capture indices below its own count,
   and nothing compares environment arrays by identity — so sharing is
   unobservable and saves the copy (the machine's per-capture charge is
   still paid by the caller). *)
let comp_env (caps : cap array) : Value.t array -> Value.t array -> Value.t array =
  if identity_prefix caps then fun env _ -> env
  else
  match caps with
  | [||] -> fun _ _ -> [||]
  | [| Cfrm r |] -> fun _ frame -> [| frame.(r) |]
  | [| Cenv e |] -> fun env _ -> [| env.(e) |]
  | [| Cconst v |] -> fun _ _ -> [| v |]
  | [| c0; c1 |] -> fun env frame -> [| cap_get env frame c0; cap_get env frame c1 |]
  | [| c0; c1; c2 |] ->
    fun env frame ->
      [| cap_get env frame c0; cap_get env frame c1; cap_get env frame c2 |]
  | [| c0; c1; c2; c3 |] ->
    fun env frame ->
      [|
        cap_get env frame c0; cap_get env frame c1; cap_get env frame c2;
        cap_get env frame c3;
      |]
  | caps -> fun env frame -> cap_env caps env frame

(* statically well-formed inline-block continuations: entering one
   cannot fault, so the machine's charge-1-on-entry may be folded into
   the preceding primop's charge *)
let good_block0 = function
  | Sblock (regs, _, cc) when Array.length regs = 0 -> Some cc
  | _ -> None

let good_block1 = function
  | Sblock (regs, _, cc) when Array.length regs = 1 -> Some (regs.(0), cc)
  | _ -> None

let rec all_good0 = function
  | [] -> Some []
  | s :: rest -> (
    match good_block0 s, all_good0 rest with
    | Some cc, Some ccs -> Some (cc :: ccs)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Compiler                                                            *)
(* ------------------------------------------------------------------ *)

(* Compiled at most once per physical unit, into the unit's own slot:
   cross-unit calls compile each callee once, and the compiled form is
   collected with the unit. *)
let rec compile_unit (u : Instr.unit_code) : cunit =
  match u.Instr.compiled with
  | Compiled cu -> cu
  | _ ->
    let cu = { src = u; funcs = [||]; blocks = [] } in
    u.Instr.compiled <- Compiled cu;
    cu.funcs <-
      Array.map
        (fun (f : Instr.func) ->
          {
            c_name = f.Instr.fn_name;
            c_arity = f.Instr.arity;
            c_nregs = max f.Instr.nregs 1;
            c_body = comp_code cu f.Instr.body;
          })
        u.Instr.funcs;
    Tml_obs.Metrics.inc compiled_units;
    cu

and comp_code cu (code : Instr.code) : ccode =
  match code with
  | Instr.Tailcall (f, args) -> comp_tailcall cu f args
  | Instr.Primop (name, vals, conts) -> comp_primop cu name vals conts
  | Instr.Close (defs, rest) ->
    let src = cu.src in
    let cdefs =
      Array.of_list
        (List.map
           (fun { Instr.dst; fn; captures } ->
             let caps = Array.map comp_cap captures in
             dst, fn, comp_env caps, 1 + Array.length caps)
           defs)
    in
    let crest = comp_code cu rest in
    if Array.length cdefs = 1 then begin
      let dst, fn, mk_env, cost = cdefs.(0) in
      fun ctx env frame ->
        Runtime.charge ctx cost;
        frame.(dst) <-
          Value.Mclosure { Value.m_unit = src; m_fn = fn; m_env = mk_env env frame };
        crest ctx env frame
    end
    else
      fun ctx env frame ->
        for i = 0 to Array.length cdefs - 1 do
          let dst, fn, mk_env, cost = cdefs.(i) in
          Runtime.charge ctx cost;
          frame.(dst) <-
            Value.Mclosure { Value.m_unit = src; m_fn = fn; m_env = mk_env env frame }
        done;
        crest ctx env frame
  | Instr.Fix (defs, rest) ->
    let src = cu.src in
    let cdefs =
      Array.of_list
        (List.map (fun { Instr.dst; fn; captures } -> dst, fn, Array.map comp_cap captures) defs)
    in
    let crest = comp_code cu rest in
    let nd = Array.length cdefs in
    fun ctx env frame ->
      (* two phases, exactly like the machine: allocate the nest with
         empty environments, then fill captures (which may refer back) *)
      let envs = Array.make nd [||] in
      for i = 0 to nd - 1 do
        let dst, fn, caps = cdefs.(i) in
        Runtime.charge ctx (1 + Array.length caps);
        let e = Array.make (Array.length caps) Value.Unit in
        frame.(dst) <- Value.Mclosure { Value.m_unit = src; m_fn = fn; m_env = e };
        envs.(i) <- e
      done;
      for i = 0 to nd - 1 do
        let _, _, caps = cdefs.(i) in
        let e = envs.(i) in
        for j = 0 to Array.length caps - 1 do
          e.(j) <- cap_get env frame (Array.unsafe_get caps j)
        done
      done;
      crest ctx env frame

(* Every transfer of control is a tail call.  The three hot shapes each
   get a direct, allocation-light path with a per-site inline cache:

   - [Mclosure]: resolve the callee's compiled entry and evaluate the
     arguments straight into its fresh frame — no argument list;
   - [Oidv]: cache the resolved compiled entry of the stored function
     (validated by the heap generation, mirroring deopt);
   - [Mblock]: cache the block's compiled code, bypassing the per-unit
     block list (every call/return round trip in CPS applies a block).

   Anything else builds the argument list and goes through the full
   applicator, exactly like the machine. *)
and comp_tailcall cu f args =
  let cargs = Array.of_list (List.map comp_operand args) in
  match f with
  | Instr.Primconst name -> (
    (* statically known primitive callee: fully compiled call *)
    match prim_call_site cu name cargs with
    | Some call -> call
    | None -> comp_tailcall_dyn cu f cargs)
  | _ -> comp_tailcall_dyn cu f cargs

and comp_tailcall_dyn cu f cargs =
  let cf = comp_operand f in
  let nargs = Array.length cargs in
  let src = cu.src in
  (* [Oidv] callee cache: [oc_call] is a prebuilt direct call for the
     resolved target — compiled entry or η-reduced primitive *)
  let oc_fv = ref Value.Unit
  and oc_heap = ref dummy_heap
  and oc_hgen = ref (-1)
  and oc_call = ref dummy_ccode in
  (* [Mblock] continuation cache *)
  let bc_code = ref dummy_code and bc_cc = ref dummy_ccode in
  let build env frame =
    let rec go i =
      if i = nargs then [] else (Array.unsafe_get cargs i) env frame :: go (i + 1)
    in
    go 0
  in
  let call_direct ctx env frame (ce : centry) cenv =
    Runtime.charge ctx (1 + nargs);
    if nargs <> ce.c_arity then
      Runtime.fault "machine function %s/%d applied to %d arguments" ce.c_name ce.c_arity
        nargs;
    let nf = alloc_frame ce.c_nregs in
    for i = 0 to nargs - 1 do
      nf.(i) <- (Array.unsafe_get cargs i) env frame
    done;
    ce.c_body ctx cenv nf
  in
  fun ctx env frame ->
    match cf env frame with
    | Value.Mclosure c ->
      let cu' = if c.Value.m_unit == src then cu else compile_unit c.Value.m_unit in
      call_direct ctx env frame cu'.funcs.(c.Value.m_fn) c.Value.m_env
    | Value.Oidv oid as fv ->
      let h = ctx.Runtime.heap in
      if fv == !oc_fv && h == !oc_heap && Value.Heap.generation h = !oc_hgen then
        !oc_call ctx env frame
      else begin
        let fill call =
          oc_fv := fv;
          oc_heap := h;
          oc_hgen := Value.Heap.generation h;
          oc_call := call
        in
        match Value.Heap.get_opt h oid with
        | Some (Value.Func fo) -> (
          match Compile.compile_func ctx fo with
          | Value.Mclosure c ->
            let cu' = if c.Value.m_unit == src then cu else compile_unit c.Value.m_unit in
            let ce = cu'.funcs.(c.Value.m_fn) in
            if ce.c_arity = nargs then begin
              let cenv = c.Value.m_env in
              let call ctx env frame =
                (* arity was checked at fill time *)
                Runtime.charge ctx (1 + nargs);
                let nf = alloc_frame ce.c_nregs in
                for i = 0 to nargs - 1 do
                  nf.(i) <- (Array.unsafe_get cargs i) env frame
                done;
                ce.c_body ctx cenv nf
              in
              fill call;
              call ctx env frame
            end
            else call_direct ctx env frame ce c.Value.m_env
          | Value.Primv pname as pv -> (
            (* the stored function η-reduced to a primitive: compile a
               direct invoke for this site *)
            match prim_call_site cu pname cargs with
            | Some call ->
              fill call;
              call ctx env frame
            | None -> call_value cu ctx pv (build env frame))
          | other -> call_value cu ctx other (build env frame))
        | Some _ -> Runtime.fault "%s is not applicable" (Oid.to_string oid)
        | None -> Runtime.fault "dangling function reference %s" (Oid.to_string oid)
      end
    | Value.Mblock b when b.Value.b_code == !bc_code ->
      Runtime.charge ctx 1;
      let regs = b.Value.b_regs in
      if nargs <> Array.length regs then
        Runtime.fault "continuation block expected %d values, got %d" (Array.length regs)
          nargs;
      let bf = b.Value.b_frame in
      if bf == frame then begin
        (* the block lives in this very frame: evaluate every argument
           before writing any destination register (they may overlap) *)
        let tmp = Array.make (max nargs 1) Value.Unit in
        for i = 0 to nargs - 1 do
          tmp.(i) <- (Array.unsafe_get cargs i) env frame
        done;
        for i = 0 to nargs - 1 do
          bf.(regs.(i)) <- tmp.(i)
        done
      end
      else
        for i = 0 to nargs - 1 do
          bf.(regs.(i)) <- (Array.unsafe_get cargs i) env frame
        done;
      !bc_cc ctx b.Value.b_env bf
    | Value.Mblock b -> apply_block_miss cu bc_code bc_cc ctx b (build env frame)
    | fv -> call_value cu ctx fv (build env frame)

(* resolve the compiled code of block [b], fill the site cache, apply *)
and apply_block_miss cu bc_code bc_cc ctx (b : Value.mblock) args =
  let cu' = if b.Value.b_unit == cu.src then cu else compile_unit b.Value.b_unit in
  match find_block cu' b.Value.b_code with
  | Some cc ->
    bc_code := b.Value.b_code;
    bc_cc := cc;
    Runtime.charge ctx 1;
    let n = Array.length b.Value.b_regs in
    if List.length args <> n then
      Runtime.fault "continuation block expected %d values, got %d" n (List.length args);
    List.iteri (fun i v -> b.Value.b_frame.(b.Value.b_regs.(i)) <- v) args;
    cc ctx b.Value.b_env b.Value.b_frame
  | None -> !escape_apply ctx (Value.Mblock b) args

and comp_primop cu name vals conts =
  let cost = prim_cost name in
  let cvals = List.map comp_operand vals in
  let sinks =
    List.map
      (function
        | Instr.Cval op -> Sval (comp_operand op)
        | Instr.Cblock (regs, code) ->
          let cc = comp_code cu code in
          register_block cu code cc;
          Sblock (regs, code, cc))
      conts
  in
  let generic = comp_generic cu name cost cvals sinks in
  if Runtime.is_standard_impl name then fast_path cu name cost cvals sinks generic
  else generic

(* The generic primop mirrors {!Machine.exec}'s [Primop] case: charge,
   evaluate operands, materialize continuation blocks as [Mblock]s, look
   up the registered implementation and invoke the continuation it
   picks.  Block continuations the implementation returns are matched
   positionally (physical equality against the values just built) and
   continue on compiled code. *)
and comp_generic cu name cost cvals sinks =
  let impl_ref = ref None in
  let src = cu.src in
  fun ctx env frame ->
    Runtime.charge ctx cost;
    let values = List.map (fun g -> g env frame) cvals in
    let contvs =
      List.map
        (function
          | Sval g -> g env frame
          | Sblock (regs, code, _) ->
            Value.Mblock
              { Value.b_frame = frame; b_unit = src; b_env = env; b_regs = regs; b_code = code })
        sinks
    in
    let impl =
      match !impl_ref with
      | Some f -> f
      | None ->
        let f = Runtime.find_impl_exn name in
        impl_ref := Some f;
        f
    in
    let (Runtime.Invoke (k, results)) = impl ctx values contvs in
    dispatch cu ctx env frame sinks contvs k results

and dispatch cu ctx env frame sinks contvs k results =
  match sinks, contvs with
  | Sblock (regs, _, cc) :: _, v :: _ when v == k ->
    Runtime.charge ctx 1;
    let n = Array.length regs in
    if List.length results <> n then
      Runtime.fault "continuation block expected %d values, got %d" n (List.length results);
    List.iteri (fun i r -> frame.(regs.(i)) <- r) results;
    cc ctx env frame
  | _ :: sinks', _ :: contvs' -> dispatch cu ctx env frame sinks' contvs' k results
  | _, _ -> call_value cu ctx k results

(* Pre-compiled continuation senders: deliver zero / one result to a
   continuation slot, mirroring the machine's [Mblock] application
   (charge 1, count check, frame writes).  Value continuations carry a
   per-site cache of the last block they resolved to. *)
and comp_sink0 cu sink =
  match sink with
  | Sblock (regs, _, cc) ->
    let n = Array.length regs in
    if n = 0 then
      fun ctx env frame ->
        Runtime.charge ctx 1;
        cc ctx env frame
    else
      fun ctx _env _frame ->
        Runtime.charge ctx 1;
        Runtime.fault "continuation block expected %d values, got 0" n
  | Sval g ->
    let bc_code = ref dummy_code and bc_cc = ref dummy_ccode in
    let mc_unit = ref dummy_unit and mc_fn = ref (-1) and mc_ce = ref dummy_centry in
    fun ctx env frame -> (
      match g env frame with
      | Value.Mblock b when b.Value.b_code == !bc_code ->
        Runtime.charge ctx 1;
        if Array.length b.Value.b_regs <> 0 then
          Runtime.fault "continuation block expected %d values, got 0"
            (Array.length b.Value.b_regs);
        !bc_cc ctx b.Value.b_env b.Value.b_frame
      | Value.Mblock b -> apply_block_miss cu bc_code bc_cc ctx b []
      | Value.Mclosure c when c.Value.m_unit == !mc_unit && c.Value.m_fn = !mc_fn ->
        let ce = !mc_ce in
        Runtime.charge ctx 1;
        let frame' = alloc_frame ce.c_nregs in
        ce.c_body ctx c.Value.m_env frame'
      | Value.Mclosure c ->
        let cu' = if c.Value.m_unit == cu.src then cu else compile_unit c.Value.m_unit in
        let ce = cu'.funcs.(c.Value.m_fn) in
        if ce.c_arity = 0 then begin
          mc_unit := c.Value.m_unit;
          mc_fn := c.Value.m_fn;
          mc_ce := ce
        end;
        apply_centry ce ctx c.Value.m_env []
      | fv -> call_value cu ctx fv [])

and comp_sink1 cu sink =
  match sink with
  | Sblock (regs, _, cc) ->
    if Array.length regs = 1 then begin
      let r0 = regs.(0) in
      fun ctx env frame v ->
        Runtime.charge ctx 1;
        frame.(r0) <- v;
        cc ctx env frame
    end
    else begin
      let n = Array.length regs in
      fun ctx _env _frame _v ->
        Runtime.charge ctx 1;
        Runtime.fault "continuation block expected %d values, got 1" n
    end
  | Sval g ->
    let bc_code = ref dummy_code and bc_cc = ref dummy_ccode in
    let mc_unit = ref dummy_unit and mc_fn = ref (-1) and mc_ce = ref dummy_centry in
    fun ctx env frame v -> (
      match g env frame with
      | Value.Mblock b when b.Value.b_code == !bc_code ->
        Runtime.charge ctx 1;
        let regs = b.Value.b_regs in
        if Array.length regs <> 1 then
          Runtime.fault "continuation block expected %d values, got 1" (Array.length regs);
        b.Value.b_frame.(regs.(0)) <- v;
        !bc_cc ctx b.Value.b_env b.Value.b_frame
      | Value.Mblock b -> apply_block_miss cu bc_code bc_cc ctx b [ v ]
      | Value.Mclosure c when c.Value.m_unit == !mc_unit && c.Value.m_fn = !mc_fn ->
        (* cached unary closure continuation: charge and arity check as
           [apply_centry] on a one-element list (arity 1 was verified at
           fill time, so only the charge remains observable) *)
        let ce = !mc_ce in
        Runtime.charge ctx 2;
        let frame' = alloc_frame ce.c_nregs in
        frame'.(0) <- v;
        ce.c_body ctx c.Value.m_env frame'
      | Value.Mclosure c ->
        let cu' = if c.Value.m_unit == cu.src then cu else compile_unit c.Value.m_unit in
        let ce = cu'.funcs.(c.Value.m_fn) in
        if ce.c_arity = 1 then begin
          mc_unit := c.Value.m_unit;
          mc_fn := c.Value.m_fn;
          mc_ce := ce
        end;
        apply_centry ce ctx c.Value.m_env [ v ]
      | fv -> call_value cu ctx fv [ v ])

(* Direct call path for a primitive applied as a first-class value — a
   [Primconst] callee, or a stored function the optimizer η-reduced to
   its primitive.  The descriptor, implementation and argument split are
   resolved once per site; the invoke continuation goes through the same
   per-site block caches as [Primop] value continuations.  Integer
   arithmetic and comparison additionally get the inline treatment of
   the [Primop] fast paths, gated on {!Runtime.is_standard_impl} (an
   implementation override registered after the site was compiled is not
   seen — the same caveat as the fast paths, see docs/TIERS.md).
   Returns [None] for shapes that must keep the machine's per-call fault
   behaviour (unknown primitive, missing implementation, too few
   continuation arguments). *)
and prim_call_site cu name cargs =
  let nargs = Array.length cargs in
  match Prim.find name with
  | None -> None
  | Some d -> (
    match d.Prim.cont_arity with
    | None -> None
    | Some nc when nargs < nc -> None
    | Some nc -> (
      match Runtime.find_impl name with
      | None -> None
      | Some impl ->
        let nvals = nargs - nc in
        let base = d.Prim.base_cost in
        (* generic invoke: charge, build value/continuation lists, call
           the implementation, deliver through a cached continuation —
           exactly [call_value]'s [Primv] case with the lookups hoisted *)
        let kc_code = ref dummy_code and kc_cc = ref dummy_ccode in
        let generic ctx env frame =
          Runtime.charge ctx base;
          let rec eval_to stop i =
            if i = stop then []
            else
              let v = (Array.unsafe_get cargs i) env frame in
              v :: eval_to stop (i + 1)
          in
          let values = eval_to nvals 0 in
          let conts = eval_to nargs nvals in
          let (Runtime.Invoke (k, results)) = impl ctx values conts in
          match k with
          | Value.Mblock b when b.Value.b_code == !kc_code ->
            Runtime.charge ctx 1;
            let regs = b.Value.b_regs in
            let n = Array.length regs in
            if List.length results <> n then
              Runtime.fault "continuation block expected %d values, got %d" n
                (List.length results);
            List.iteri (fun i v -> b.Value.b_frame.(regs.(i)) <- v) results;
            !kc_cc ctx b.Value.b_env b.Value.b_frame
          | Value.Mblock b -> apply_block_miss cu kc_code kc_cc ctx b results
          | k -> call_value cu ctx k results
        in
        if not (Runtime.is_standard_impl name) then Some generic
        else (
          match name, nargs with
          | ("+" | "-" | "*" | "/" | "%"), 4 ->
            let ca = cargs.(0) and cb = cargs.(1) in
            let send_e = comp_sink1 cu (Sval cargs.(2))
            and send_c = comp_sink1 cu (Sval cargs.(3)) in
            let ok ctx env frame r = send_c ctx env frame (mk_int r)
            and ovf ctx env frame msg = send_e ctx env frame (Value.Str msg) in
            Some (arith_site name ca cb base ok ovf generic)
          | ("<" | "<=" | ">" | ">="), 4 ->
            let op : int -> int -> bool =
              match name with
              | "<" -> ( < )
              | "<=" -> ( <= )
              | ">" -> ( > )
              | _ -> ( >= )
            in
            let ca = cargs.(0) and cb = cargs.(1) in
            let send_t = comp_sink0 cu (Sval cargs.(2))
            and send_f = comp_sink0 cu (Sval cargs.(3)) in
            Some
              (fun ctx env frame ->
                match ca env frame, cb env frame with
                | Value.Int a, Value.Int b ->
                  Runtime.charge ctx base;
                  if op a b then send_t ctx env frame else send_f ctx env frame
                | _ -> generic ctx env frame)
          | _ -> Some generic)))

(* resolve the slots of an indexable store object exactly as the
   machine's implementation would (including faults), and cache them
   only when safe: in-place-mutable or immutable slot arrays (a relation
   materializes a row snapshot that is memoized on its header and
   invalidated by insert, so no per-site cache is needed) *)
and indexable_slots ~what ctx h oid a fill =
  let slots = Runtime.as_indexable ctx ~what a in
  (match Value.Heap.peek h oid with
  | Some (Value.Array s | Value.Vector s | Value.Tuple s) -> fill s
  | _ -> ());
  slots

and array_slots ~what ctx h oid a fill =
  let slots = Runtime.as_array ctx ~what a in
  (match Value.Heap.peek h oid with
  | Some (Value.Array s) -> fill s
  | _ -> ());
  slots

(* Checked integer arithmetic, inlined per operator so the hot path
   allocates nothing: branch decisions are exactly those of
   [Primitives.add_checked] and friends ([ok] on success, [ovf] with the
   machine's message on overflow / division by zero), without the option
   box or the indirect call through a [checked] function value. *)
and arith_site name ca cb cost ok ovf generic =
  match name with
  | "+" ->
    fun ctx env frame -> (
      match ca env frame, cb env frame with
      | Value.Int a, Value.Int b ->
        Runtime.charge ctx cost;
        let r = a + b in
        if a >= 0 = (b >= 0) && r >= 0 <> (a >= 0) then
          ovf ctx env frame Primitives.overflow_message
        else ok ctx env frame r
      | _ -> generic ctx env frame)
  | "-" ->
    fun ctx env frame -> (
      match ca env frame, cb env frame with
      | Value.Int a, Value.Int b ->
        Runtime.charge ctx cost;
        let r = a - b in
        if a >= 0 <> (b >= 0) && r >= 0 <> (a >= 0) then
          ovf ctx env frame Primitives.overflow_message
        else ok ctx env frame r
      | _ -> generic ctx env frame)
  | "*" ->
    fun ctx env frame -> (
      match ca env frame, cb env frame with
      | Value.Int a, Value.Int b ->
        Runtime.charge ctx cost;
        if a = 0 || b = 0 then ok ctx env frame 0
        else if a = -1 then
          if b = min_int then ovf ctx env frame Primitives.overflow_message
          else ok ctx env frame (-b)
        else if b = -1 then
          if a = min_int then ovf ctx env frame Primitives.overflow_message
          else ok ctx env frame (-a)
        else
          let r = a * b in
          if r / a = b then ok ctx env frame r
          else ovf ctx env frame Primitives.overflow_message
      | _ -> generic ctx env frame)
  | "/" ->
    fun ctx env frame -> (
      match ca env frame, cb env frame with
      | Value.Int a, Value.Int b ->
        Runtime.charge ctx cost;
        if b = 0 then ovf ctx env frame Primitives.div_zero_message
        else if a = min_int && b = -1 then ovf ctx env frame Primitives.overflow_message
        else ok ctx env frame (a / b)
      | _ -> generic ctx env frame)
  | _ ->
    fun ctx env frame -> (
      match ca env frame, cb env frame with
      | Value.Int a, Value.Int b ->
        Runtime.charge ctx cost;
        if b = 0 then ovf ctx env frame Primitives.div_zero_message
        else if a = min_int && b = -1 then ok ctx env frame 0
        else ok ctx env frame (Int.rem a b)
      | _ -> generic ctx env frame)

(* Inline fast paths for the standard implementations of the hottest
   primitives.  Operands are pure, so each fast path may evaluate them
   {e before} charging; on a representation mismatch it falls back to
   the generic dispatch, which re-evaluates the operands and reproduces
   the machine's exact charge-then-fault order.  When the continuations
   are statically well-formed blocks, the block-entry charge is folded
   into the primop charge (see the header comment). *)
and fast_path cu name cost cvals sinks generic =
  match name, cvals, sinks with
  | ("+" | "-" | "*" | "/" | "%"), [ ca; cb ], [ se; sc ] -> (
    match good_block1 se, good_block1 sc with
    | Some (re, ce), Some (rc, cc) ->
      let ok ctx env frame r =
        frame.(rc) <- mk_int r;
        cc ctx env frame
      and ovf ctx env frame msg =
        frame.(re) <- Value.Str msg;
        ce ctx env frame
      in
      arith_site name ca cb (cost + 1) ok ovf generic
    | _ ->
      let send_e = comp_sink1 cu se and send_c = comp_sink1 cu sc in
      let ok ctx env frame r = send_c ctx env frame (mk_int r)
      and ovf ctx env frame msg = send_e ctx env frame (Value.Str msg) in
      arith_site name ca cb cost ok ovf generic)
  | ("<" | "<=" | ">" | ">="), [ ca; cb ], [ st; sf ] -> (
    let op : int -> int -> bool =
      match name with
      | "<" -> ( < )
      | "<=" -> ( <= )
      | ">" -> ( > )
      | _ -> ( >= )
    in
    match good_block0 st, good_block0 sf with
    | Some jt, Some jf ->
      let cost1 = cost + 1 in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Int a, Value.Int b ->
          Runtime.charge ctx cost1;
          if op a b then jt ctx env frame else jf ctx env frame
        | _ -> generic ctx env frame)
    | _ ->
      let send_t = comp_sink0 cu st and send_f = comp_sink0 cu sf in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Int a, Value.Int b ->
          Runtime.charge ctx cost;
          if op a b then send_t ctx env frame else send_f ctx env frame
        | _ -> generic ctx env frame))
  | ("f+" | "f-" | "f*" | "f/"), [ ca; cb ], [ k ] -> (
    let op : float -> float -> float =
      match name with
      | "f+" -> ( +. )
      | "f-" -> ( -. )
      | "f*" -> ( *. )
      | _ -> ( /. )
    in
    match good_block1 k with
    | Some (r0, cc) ->
      let cost1 = cost + 1 in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Real a, Value.Real b ->
          Runtime.charge ctx cost1;
          frame.(r0) <- Value.Real (op a b);
          cc ctx env frame
        | _ -> generic ctx env frame)
    | None ->
      let send = comp_sink1 cu k in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Real a, Value.Real b ->
          Runtime.charge ctx cost;
          send ctx env frame (Value.Real (op a b))
        | _ -> generic ctx env frame))
  | ("f<" | "f<=" | "f>" | "f>="), [ ca; cb ], [ st; sf ] -> (
    let op : float -> float -> bool =
      match name with
      | "f<" -> ( < )
      | "f<=" -> ( <= )
      | "f>" -> ( > )
      | _ -> ( >= )
    in
    match good_block0 st, good_block0 sf with
    | Some jt, Some jf ->
      let cost1 = cost + 1 in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Real a, Value.Real b ->
          Runtime.charge ctx cost1;
          if op a b then jt ctx env frame else jf ctx env frame
        | _ -> generic ctx env frame)
    | _ ->
      let send_t = comp_sink0 cu st and send_f = comp_sink0 cu sf in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Real a, Value.Real b ->
          Runtime.charge ctx cost;
          if op a b then send_t ctx env frame else send_f ctx env frame
        | _ -> generic ctx env frame))
  | ("band" | "bor" | "bxor"), [ ca; cb ], [ k ] -> (
    let op : int -> int -> int =
      match name with
      | "band" -> ( land )
      | "bor" -> ( lor )
      | _ -> ( lxor )
    in
    match good_block1 k with
    | Some (r0, cc) ->
      let cost1 = cost + 1 in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Int a, Value.Int b ->
          Runtime.charge ctx cost1;
          frame.(r0) <- mk_int (op a b);
          cc ctx env frame
        | _ -> generic ctx env frame)
    | None ->
      let send = comp_sink1 cu k in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Int a, Value.Int b ->
          Runtime.charge ctx cost;
          send ctx env frame (mk_int (op a b))
        | _ -> generic ctx env frame))
  | ("and" | "or"), [ ca; cb ], [ k ] -> (
    let op : bool -> bool -> bool = if name = "and" then ( && ) else ( || ) in
    match good_block1 k with
    | Some (r0, cc) ->
      let cost1 = cost + 1 in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Bool a, Value.Bool b ->
          Runtime.charge ctx cost1;
          frame.(r0) <- mk_bool (op a b);
          cc ctx env frame
        | _ -> generic ctx env frame)
    | None ->
      let send = comp_sink1 cu k in
      fun ctx env frame -> (
        match ca env frame, cb env frame with
        | Value.Bool a, Value.Bool b ->
          Runtime.charge ctx cost;
          send ctx env frame (mk_bool (op a b))
        | _ -> generic ctx env frame))
  | "[]", [ ca; ci ], [ k ] ->
    let send = comp_sink1 cu k in
    let c_a = ref Value.Unit
    and c_heap = ref dummy_heap
    and c_hgen = ref (-1)
    and c_slots = ref [||] in
    fun ctx env frame -> (
      match ca env frame, ci env frame with
      | (Value.Oidv oid as a), Value.Int i ->
        Runtime.charge ctx cost;
        let h = ctx.Runtime.heap in
        let slots =
          if a == !c_a && h == !c_heap && Value.Heap.generation h = !c_hgen then !c_slots
          else
            indexable_slots ~what:"[]" ctx h oid a (fun s ->
                c_a := a;
                c_heap := h;
                c_hgen := Value.Heap.generation h;
                c_slots := s)
        in
        if i < 0 || i >= Array.length slots then
          Runtime.fault "[]: index %d out of bounds (size %d)" i (Array.length slots);
        send ctx env frame (Array.unsafe_get slots i)
      | _ -> generic ctx env frame)
  | "[:=]", [ ca; ci; cv ], [ k ] ->
    let send = comp_sink1 cu k in
    let c_a = ref Value.Unit
    and c_heap = ref dummy_heap
    and c_hgen = ref (-1)
    and c_slots = ref [||] in
    fun ctx env frame -> (
      match ca env frame, ci env frame with
      | (Value.Oidv oid as a), Value.Int i ->
        Runtime.charge ctx cost;
        let h = ctx.Runtime.heap in
        let slots =
          if a == !c_a && h == !c_heap && Value.Heap.generation h = !c_hgen then !c_slots
          else
            array_slots ~what:"[:=]" ctx h oid a (fun s ->
                c_a := a;
                c_heap := h;
                c_hgen := Value.Heap.generation h;
                c_slots := s)
        in
        if i < 0 || i >= Array.length slots then
          Runtime.fault "[:=]: index %d out of bounds (size %d)" i (Array.length slots);
        Array.unsafe_set slots i (cv env frame);
        Value.Heap.note_write h oid;
        send ctx env frame Value.Unit
      | _ -> generic ctx env frame)
  | "size", [ ca ], [ k ] ->
    let send = comp_sink1 cu k in
    let c_a = ref Value.Unit
    and c_heap = ref dummy_heap
    and c_hgen = ref (-1)
    and c_slots = ref [||] in
    fun ctx env frame -> (
      match ca env frame with
      | Value.Oidv oid as a ->
        Runtime.charge ctx cost;
        let h = ctx.Runtime.heap in
        let slots =
          if a == !c_a && h == !c_heap && Value.Heap.generation h = !c_hgen then !c_slots
          else
            indexable_slots ~what:"size" ctx h oid a (fun s ->
                c_a := a;
                c_heap := h;
                c_hgen := Value.Heap.generation h;
                c_slots := s)
        in
        send ctx env frame (mk_int (Array.length slots))
      | _ -> generic ctx env frame)
  | "==", cscrut :: ctags, _
    when (let nt = List.length ctags and nc = List.length sinks in
          nc = nt || nc = nt + 1) -> (
    let n_tags = List.length ctags in
    let has_default = List.length sinks = n_tags + 1 in
    match all_good0 sinks with
    | Some jumps when has_default -> (
      (* all branches are well-formed blocks and a default exists: no
         fault is reachable between the two charges — fold them *)
      let cost1 = cost + 1 in
      match ctags, jumps with
      | [ tg0 ], [ j0; dflt ] ->
        (* two-way branch, the dominant shape (if/else) *)
        fun ctx env frame ->
          Runtime.charge ctx cost1;
          if Value.identical (cscrut env frame) (tg0 env frame) then j0 ctx env frame
          else dflt ctx env frame
      | [ tg0; tg1 ], [ j0; j1; dflt ] ->
        fun ctx env frame ->
          Runtime.charge ctx cost1;
          let s = cscrut env frame in
          if Value.identical s (tg0 env frame) then j0 ctx env frame
          else if Value.identical s (tg1 env frame) then j1 ctx env frame
          else dflt ctx env frame
      | _ ->
        fun ctx env frame ->
          Runtime.charge ctx cost1;
          let s = cscrut env frame in
          let rec scan tags js =
            match tags, js with
            | tg :: tags', j :: js' ->
              if Value.identical s (tg env frame) then j ctx env frame else scan tags' js'
            | [], [ dflt ] -> dflt ctx env frame
            | _, _ -> assert false
          in
          scan ctags jumps)
    | _ ->
      let senders = List.map (comp_sink0 cu) sinks in
      fun ctx env frame ->
        Runtime.charge ctx cost;
        let s = cscrut env frame in
        let rec scan tags ss =
          match tags, ss with
          | tg :: tags', sk :: ss' ->
            if Value.identical s (tg env frame) then sk ctx env frame else scan tags' ss'
          | [], [ dflt ] -> dflt ctx env frame
          | [], [] -> Runtime.fault "==: no branch matches %s" (Value.to_string s)
          | _, _ -> assert false
        in
        scan ctags senders)
  | _ -> generic

(* list-argument application of a compiled function, mirroring the
   machine's [Mclosure] case (charge, arity check, frame fill) *)
and apply_centry (ce : centry) ctx env args =
  let n = List.length args in
  Runtime.charge ctx (1 + n);
  if n <> ce.c_arity then
    Runtime.fault "machine function %s/%d applied to %d arguments" ce.c_name ce.c_arity n;
  let frame = alloc_frame ce.c_nregs in
  List.iteri (fun i v -> frame.(i) <- v) args;
  ce.c_body ctx env frame

(* The full applicator, mirroring {!Machine.apply} case by case.  Every
   value the compiled tier can be asked to apply is an ordinary machine
   value, so anything unhandled escapes to the interpreter — escape is
   always semantically sound, it merely leaves the tier. *)
and call_value cu ctx (fv : Value.t) (args : Value.t list) : Eval.outcome =
  match fv with
  | Value.Mclosure c ->
    let cu' = if c.Value.m_unit == cu.src then cu else compile_unit c.Value.m_unit in
    apply_centry cu'.funcs.(c.Value.m_fn) ctx c.Value.m_env args
  | Value.Mblock b -> (
    let cu' = if b.Value.b_unit == cu.src then cu else compile_unit b.Value.b_unit in
    match find_block cu' b.Value.b_code with
    | Some cc ->
      Runtime.charge ctx 1;
      let n = Array.length b.Value.b_regs in
      if List.length args <> n then
        Runtime.fault "continuation block expected %d values, got %d" n (List.length args);
      List.iteri (fun i v -> b.Value.b_frame.(b.Value.b_regs.(i)) <- v) args;
      cc ctx b.Value.b_env b.Value.b_frame
    | None -> !escape_apply ctx fv args)
  | Value.Primv name -> (
    let d =
      match Prim.find name with
      | Some d -> d
      | None -> Runtime.fault "unknown primitive %S" name
    in
    Runtime.charge ctx d.Prim.base_cost;
    match d.Prim.cont_arity with
    | Some nc ->
      let total = List.length args in
      if total < nc then Runtime.fault "%s: expected %d continuations" name nc;
      let rec split i acc = function
        | rest when i = total - nc -> List.rev acc, rest
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> assert false
      in
      let values, conts = split 0 [] args in
      let impl = Runtime.find_impl_exn name in
      let (Runtime.Invoke (k, results)) = impl ctx values conts in
      call_value cu ctx k results
    | None -> Runtime.fault "%s: cannot be applied as a first-class value" name)
  | Value.Oidv oid -> (
    match Value.Heap.get_opt ctx.Runtime.heap oid with
    | Some (Value.Func fo) -> call_value cu ctx (Compile.compile_func ctx fo) args
    | Some _ -> Runtime.fault "%s is not applicable" (Oid.to_string oid)
    | None -> Runtime.fault "dangling function reference %s" (Oid.to_string oid))
  | Value.Halt ok -> (
    match args with
    | [ v ] -> if ok then Eval.Done v else Eval.Raised v
    | vs -> Runtime.fault "halt continuation received %d values" (List.length vs))
  | v -> !escape_apply ctx v args

(* entry used by {!Tierup}: apply function [fn] of a compiled unit under
   environment [env], charging like an [Mclosure] application *)
let apply_func cu ~fn ~env ctx args = apply_centry cu.funcs.(fn) ctx env args
