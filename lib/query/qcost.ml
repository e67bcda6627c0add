(* Cardinality-driven cost estimates for the store-aware query rules.

   The estimates read the per-relation [Stats] store object maintained
   by [Rel] (row count, tuple arity, per-indexed-field distinct-count
   sketch) at optimization time: a plan reflects the statistics of the
   moment it was made, and a later re-optimization re-reads them. *)

open Tml_vm

type rstats = {
  cs_card : int;  (** row count *)
  cs_arity : int;  (** tuple width; -1 unknown/heterogeneous, 0 empty *)
  cs_distinct : (int * int) list;  (** field → distinct keys (indexed fields only) *)
}

let relation_stats ctx oid =
  match Value.Heap.get_opt ctx.Runtime.heap oid with
  | Some (Value.Relation r) -> (
    match r.Value.rel_stats with
    | None -> None
    | Some soid -> (
      match Value.Heap.get_opt ctx.Runtime.heap soid with
      | Some (Value.Stats st) ->
        Some
          {
            cs_card = st.Value.st_count;
            cs_arity = st.Value.st_arity;
            cs_distinct = st.Value.st_distinct;
          }
      | _ -> None))
  | _ -> None

let distinct_on st field = List.assoc_opt field st.cs_distinct

(* Estimated output cardinality of the equi-join X ⋈_{x.i = y.j} Y under
   the uniform-key assumption: |X|·|Y| / max(d_X(i), d_Y(j)). Unknown
   distinct counts (no index on the field) degrade to 1 — the
   conservative "every pair matches" bound, so the planner only deviates
   from the naive order when a maintained statistic justifies it. *)
let est_equijoin ~ca ~cb ~da ~db =
  let d = max 1 (max (Option.value ~default:1 da) (Option.value ~default:1 db)) in
  float_of_int ca *. float_of_int cb /. float_of_int d

(* Cost of a nested-loop join, in per-pair predicate probes. *)
let nested_cost ca cb = float_of_int ca *. float_of_int cb
