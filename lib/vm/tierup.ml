open Tml_core

(* Profile-guided promotion of hot stored functions to the compiled
   closure tier ({!Jit}).

   The machine consults {!dispatch} on every [Oidv] application.  A
   promoted function answers with its compiled entry; an unpromoted one
   is call-counted, and once it crosses [call_threshold] while the
   process shows enough interpreter work ([hot_enough]), its current
   bytecode image is compiled and installed.  Promotion never changes
   semantics — the compiled tier charges the same abstract instruction
   costs at the same points as the machine — so the only policy risk is
   staleness, handled by deoptimization:

   - {!Speccache.invalidate} notifications (rebinding in the REPL,
     in-place reflective re-optimization, and any store update the
     mutator reports) deoptimize the function and everything that
     depends on it;
   - a heap update hook, chained at promotion time in front of whatever
     the backing store installed, deoptimizes on [Heap.set] of the
     function or one of its R-value binding dependencies;
   - {!dispatch} itself re-validates on every entry: the entry's heap
     must be physically the caller's heap (a durable reopen builds a
     fresh heap with overlapping OIDs) and the function object's
     compiled unit must be physically the one promoted against — any
     mismatch deoptimizes on the spot and falls back to the machine.

   After an in-place re-optimization, {!repromote} immediately rebuilds
   the entry from the new code so hot functions do not re-heat from
   zero. *)

type stats = {
  mutable promotions : int;
  mutable deopts : int;
  mutable runs : int;  (** entries into compiled code from the machine *)
  mutable rejections : int;  (** promotion attempts that failed to compile *)
}

let stats_ = { promotions = 0; deopts = 0; runs = 0; rejections = 0 }
let stats () = stats_

let reset_stats () =
  stats_.promotions <- 0;
  stats_.deopts <- 0;
  stats_.runs <- 0;
  stats_.rejections <- 0

(* policy knobs; see docs/TIERS.md *)
let enabled = ref false
let call_threshold = ref 32
let min_run_steps = ref 10_000

type entry = {
  e_heap : Value.Heap.heap;  (** promotion is scoped to this heap *)
  e_unit : Instr.unit_code;  (** the bytecode image compiled, physical *)
  e_entry : Runtime.ctx -> Value.t list -> Eval.outcome;
  e_deps : int list;  (** R-value binding OIDs watched for deopt *)
}

let promoted : (int, entry) Hashtbl.t = Hashtbl.create 16
let dep_watch : (int, int) Hashtbl.t = Hashtbl.create 16  (* dep oid -> promoted oid *)
let calls : (int, int ref) Hashtbl.t = Hashtbl.create 64
let rejected : (int, unit) Hashtbl.t = Hashtbl.create 16
let sticky : (int, unit) Hashtbl.t = Hashtbl.create 16  (* ever promoted *)

let promoted_count () = Hashtbl.length promoted

(* ------------------------------------------------------------------ *)
(* Deoptimization                                                      *)
(* ------------------------------------------------------------------ *)

let remove_dep_binding dep p =
  let rest = List.filter (fun x -> x <> p) (Hashtbl.find_all dep_watch dep) in
  let rec purge () =
    if Hashtbl.mem dep_watch dep then begin
      Hashtbl.remove dep_watch dep;
      purge ()
    end
  in
  purge ();
  List.iter (fun x -> Hashtbl.add dep_watch dep x) rest

let deopt o =
  match Hashtbl.find_opt promoted o with
  | None -> ()
  | Some e ->
    Hashtbl.remove promoted o;
    List.iter (fun d -> remove_dep_binding d o) e.e_deps;
    Jit.invalidate_sites ();
    stats_.deopts <- stats_.deopts + 1;
    Tml_obs.Events.tier `Deopt ~oid:o

(* a store update touched [o]: deoptimize it and everything watching it *)
let note_update o =
  if Hashtbl.mem promoted o then deopt o;
  match Hashtbl.find_all dep_watch o with
  | [] -> ()
  | dependents -> List.iter deopt dependents

let note_invalidate oid =
  let o = Oid.to_int oid in
  Hashtbl.remove rejected o;  (* redefinition may make it promotable *)
  (* the binding's meaning may have changed even if nothing was
     promoted: drop every resolved-callee inline cache in the tier *)
  Jit.invalidate_sites ();
  note_update o

let () = Speccache.subscribe_invalidate note_invalidate

(* ------------------------------------------------------------------ *)
(* Heap update-hook chaining                                           *)
(* ------------------------------------------------------------------ *)

(* Chained in front of whatever the backing store installed, preserved
   per heap.  If someone replaced the hook since (a store attached after
   promotion), the next promotion re-chains in front of the new one. *)
let watched : (Value.Heap.heap * (Oid.t -> Value.obj -> unit)) list ref = ref []

let watch_heap heap =
  let ours =
    let rec find = function
      | [] -> None
      | (h, f) :: rest -> if h == heap then Some f else find rest
    in
    find !watched
  in
  let installed_is_ours =
    match ours, Value.Heap.update_hook heap with
    | Some f, Some g -> f == g
    | _ -> false
  in
  if not installed_is_ours then begin
    let prev = Value.Heap.update_hook heap in
    let hook oid obj =
      note_update (Oid.to_int oid);
      match prev with
      | Some f -> f oid obj
      | None -> ()
    in
    Value.Heap.set_update_hook heap hook;
    watched := (heap, hook) :: List.filter (fun (h, _) -> h != heap) !watched
  end

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)
(* ------------------------------------------------------------------ *)

let promote ctx oid =
  let o = Oid.to_int oid in
  match Value.Heap.get_opt ctx.Runtime.heap oid with
  | Some (Value.Func fo) -> (
    match Compile.compile_func ctx fo with
    | Value.Mclosure c ->
      let cu = Jit.compile_unit c.Value.m_unit in
      let fn = c.Value.m_fn and env = c.Value.m_env in
      let deps =
        List.filter_map
          (fun (_, v) ->
            match v with
            | Value.Oidv d when Oid.to_int d <> o -> Some (Oid.to_int d)
            | _ -> None)
          fo.Value.fo_bindings
      in
      deopt o;  (* replace any stale entry *)
      let e =
        {
          e_heap = ctx.Runtime.heap;
          e_unit = c.Value.m_unit;
          e_entry = Jit.apply_func cu ~fn ~env;
          e_deps = deps;
        }
      in
      Hashtbl.replace promoted o e;
      List.iter (fun d -> Hashtbl.add dep_watch d o) deps;
      Hashtbl.replace sticky o ();
      Jit.invalidate_sites ();
      watch_heap ctx.Runtime.heap;
      stats_.promotions <- stats_.promotions + 1;
      Tml_obs.Events.tier `Promote ~oid:o;
      true
    | _ ->
      (* η-reduced to a primitive or literal: nothing to compile *)
      stats_.rejections <- stats_.rejections + 1;
      false
    | exception Runtime.Fault _ ->
      stats_.rejections <- stats_.rejections + 1;
      false)
  | _ -> false

let force_promote = promote

let repromote ctx oid =
  let o = Oid.to_int oid in
  let hot =
    match Hashtbl.find_opt calls o with
    | Some r -> !r >= !call_threshold
    | None -> false
  in
  if Hashtbl.mem sticky o || hot then ignore (promote ctx oid)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let entry_for ctx o (fo : Value.func_obj) (e : entry) =
  if e.e_heap != ctx.Runtime.heap then begin
    (* a different heap reuses the OID space: durable reopen, fresh
       oracle context — the entry is for another world, drop it *)
    deopt o;
    None
  end
  else
    match fo.Value.fo_code with
    | Some u when u == e.e_unit -> Some e.e_entry
    | _ ->
      (* the function was relinked or re-optimized under us *)
      deopt o;
      None

(* cross-run interpreter-work signal: total machine steps observed by
   the always-on vm.run_steps histogram (many short REPL runs add up),
   or enough steps inside the current run, or a warm speccache (a
   reopened image replaying a known-hot workload) *)
let vm_steps_hist = lazy (Tml_obs.Metrics.histogram "vm.run_steps")

let hot_enough ctx =
  ctx.Runtime.steps >= !min_run_steps
  || Tml_obs.Metrics.histogram_sum (Lazy.force vm_steps_hist) >= float_of_int !min_run_steps
  || (Speccache.stats ()).Speccache.hits > 0

let count_call o =
  match Hashtbl.find_opt calls o with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.replace calls o (ref 1);
    1

let dispatch ctx oid (fo : Value.func_obj) =
  if Hashtbl.length promoted = 0 && not !enabled then None
  else begin
    let o = Oid.to_int oid in
    match Hashtbl.find_opt promoted o with
    | Some e -> (
      match entry_for ctx o fo e with
      | Some entry ->
        stats_.runs <- stats_.runs + 1;
        Tml_obs.Events.tier `Run ~oid:o;
        Some entry
      | None -> None)
    | None ->
      if
        !enabled
        && count_call o >= !call_threshold
        && (not (Hashtbl.mem rejected o))
        && hot_enough ctx
      then
        if promote ctx oid then (
          match Hashtbl.find_opt promoted o with
          | Some e ->
            stats_.runs <- stats_.runs + 1;
            Tml_obs.Events.tier `Run ~oid:o;
            Some e.e_entry
          | None -> None)
        else begin
          Hashtbl.replace rejected o ();
          None
        end
      else None
  end

(* compiled code applying an Oidv stays on the tier when the callee is
   promoted and still valid; no run counting or promotion policy here —
   runs count entries from the machine, and policy decisions happen at
   that boundary *)
let jit_entry ctx oid fo =
  if Hashtbl.length promoted = 0 then None
  else
    let o = Oid.to_int oid in
    match Hashtbl.find_opt promoted o with
    | Some e -> entry_for ctx o fo e
    | None -> None

let () = Jit.oid_entry := jit_entry

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let clear () =
  Hashtbl.reset promoted;
  Hashtbl.reset dep_watch;
  Hashtbl.reset calls;
  Hashtbl.reset rejected;
  Hashtbl.reset sticky;
  watched := [];
  Jit.invalidate_sites ()

let forget ~lo ~hi =
  let in_range o = o >= lo && o < hi in
  Hashtbl.fold (fun o _ acc -> if in_range o then o :: acc else acc) promoted []
  |> List.iter deopt;
  let drop tbl = Hashtbl.filter_map_inplace (fun o v -> if in_range o then None else Some v) tbl in
  drop calls;
  drop rejected;
  drop sticky;
  drop dep_watch

let register_metrics () =
  Tml_obs.Metrics.register_source ~name:"tier"
    ~snapshot:(fun () ->
      Tml_obs.Metrics.
        [
          ("promotions", I stats_.promotions);
          ("deopts", I stats_.deopts);
          ("runs", I stats_.runs);
          ("rejections", I stats_.rejections);
          ("promoted", I (Hashtbl.length promoted));
          ("compiled_units", I (Jit.compiled_units ()));
        ])
    ~reset:reset_stats
