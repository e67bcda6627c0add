(* Step-bucket profiler: between two stored-function applications on
   the same ctx, every step charged belongs to the first function.
   Recording is two hashtable operations per application when enabled,
   a single ref read when not. *)

let enabled = ref false

type slot = { mutable s_steps : int; mutable s_calls : int }

(* key = (tier, name): one row per function name and tier, so the
   fresh function object each Eval runs adds no row *)
let table : (string * string, slot) Hashtbl.t = Hashtbl.create 64

(* The open attribution window: which function is running, on which
   ctx, and what the step counter read when it started.  The ctx is
   kept to guard against interleaved runs from different sessions —
   a delta is only meaningful against the same counter. *)
let window : (Runtime.ctx * (string * string) * int) option ref = ref None

let slot key =
  match Hashtbl.find_opt table key with
  | Some s -> s
  | None ->
    let s = { s_steps = 0; s_calls = 0 } in
    Hashtbl.replace table key s;
    s

let close_window ctx =
  match !window with
  | Some (wctx, key, steps0) when wctx == ctx ->
    let d = ctx.Runtime.steps - steps0 in
    if d > 0 then begin
      let s = slot key in
      s.s_steps <- s.s_steps + d
    end
  | _ -> ()

let note_apply ctx ~tier ~name =
  close_window ctx;
  let key = (tier, name) in
  (slot key).s_calls <- (slot key).s_calls + 1;
  window := Some (ctx, key, ctx.Runtime.steps)

let flush ctx =
  close_window ctx;
  (match !window with
   | Some (wctx, _, _) when wctx == ctx -> window := None
   | _ -> ())

let reset () =
  Hashtbl.reset table;
  window := None

type sample = { vp_key : string; vp_tier : string; vp_steps : int; vp_calls : int }

let samples () =
  Hashtbl.fold
    (fun (tier, key) s acc ->
      { vp_key = key; vp_tier = tier; vp_steps = s.s_steps; vp_calls = s.s_calls }
      :: acc)
    table []
  |> List.sort (fun a b ->
         match compare b.vp_steps a.vp_steps with
         | 0 -> compare a.vp_key b.vp_key
         | c -> c)

let total_steps () = List.fold_left (fun acc s -> acc + s.vp_steps) 0 (samples ())

let collapsed () =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      if s.vp_steps > 0 then
        Buffer.add_string buf (Printf.sprintf "%s;%s %d\n" s.vp_tier s.vp_key s.vp_steps))
    (samples ());
  Buffer.contents buf

let pp fmt () =
  let ss = samples () in
  let total = total_steps () in
  if ss = [] then Format.fprintf fmt "vm profile: no samples@."
  else begin
    Format.fprintf fmt "vm profile (%d steps attributed):@." total;
    Format.fprintf fmt "  %8s  %6s  %8s  %-7s %s@." "steps" "%" "calls" "tier" "function";
    List.iter
      (fun s ->
        if s.vp_steps > 0 || s.vp_calls > 0 then
          Format.fprintf fmt "  %8d  %5.1f%%  %8d  %-7s %s@." s.vp_steps
            (if total = 0 then 0. else 100. *. float_of_int s.vp_steps /. float_of_int total)
            s.vp_calls s.vp_tier s.vp_key)
      ss
  end
