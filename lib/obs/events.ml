(* Typed event vocabulary.  Every emitter below checks [Trace.enabled]
   first (via Trace's own gate), so instrumented hot paths pay one ref
   read when tracing is off.  A few emitters also feed always-on
   metrics (VM instruction histograms), mirroring how the existing
   Profile / Store_stats counters are unconditional. *)

open Trace

(* optimizer *)

let rule_fire ~rule ~fact ~site ~size_before ~size_after ~cost_before ~cost_after =
  if !enabled then
    instant ~cat:"optimizer" "rule_fire"
      ~args:
        ([
           ("rule", Str rule);
           ("site", Str site);
           ("size_before", Int size_before);
           ("size_after", Int size_after);
           ("cost_before", Int cost_before);
           ("cost_after", Int cost_after);
         ]
        @ if fact = "" then [] else [ ("fact", Str fact) ])

let expand_site ~accepted ~site ~body_size ~growth ~growth_limit =
  if !enabled then
    instant ~cat:"optimizer" "expand_site"
      ~args:
        [
          ("accepted", Bool accepted);
          ("site", Str site);
          ("body_size", Int body_size);
          ("budget_used", Int growth);
          ("budget_limit", Int growth_limit);
        ]

let budget_exhausted ~round ~penalty ~limit =
  if !enabled then
    instant ~cat:"optimizer" "budget_exhausted"
      ~args:[ ("round", Int round); ("penalty", Int penalty); ("limit", Int limit) ]

(* reflect *)

let reoptimize ~name ~oid =
  if !enabled then
    instant ~cat:"reflect" "reoptimize" ~args:[ ("name", Str name); ("oid", Int oid) ]

(* store *)

let store_commit ~objects ~bytes =
  if !enabled then
    instant ~cat:"store" "store_commit" ~args:[ ("objects", Int objects); ("bytes", Int bytes) ]

let store_fault ~oid ~bytes =
  if !enabled then instant ~cat:"store" "store_fault" ~args:[ ("oid", Int oid); ("bytes", Int bytes) ]

let store_compact ~live ~dropped =
  if !enabled then
    instant ~cat:"store" "store_compact" ~args:[ ("live", Int live); ("dropped", Int dropped) ]

(* vm: instruction-count buckets.  The histogram is always-on (one
   observe per run); the trace event buckets runs by power-of-two step
   count so Perfetto timelines stay legible. *)

let vm_steps_histogram = lazy (Metrics.histogram "vm.run_steps")

let bucket_of_steps n =
  if n <= 0 then "0"
  else begin
    let b = ref 1 in
    while !b < n && !b < 1 lsl 30 do
      b := !b * 2
    done;
    "<=" ^ string_of_int !b
  end

let vm_run ~engine ~steps =
  Metrics.observe (Lazy.force vm_steps_histogram) (float_of_int steps);
  if !enabled then
    instant ~cat:"vm" "vm_run"
      ~args:[ ("engine", Str engine); ("steps", Int steps); ("bucket", Str (bucket_of_steps steps)) ]

(* tiered execution *)

let tier kind ~name =
  if !enabled then begin
    let k =
      match kind with
      | `Promote -> "promote"
      | `Deopt -> "deopt"
    in
    instant ~cat:"tier" ("tier_" ^ k) ~args:[ ("function", Str name) ]
  end
