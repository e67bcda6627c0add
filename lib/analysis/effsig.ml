open Tml_core

type exits =
  | Exact of Ident.Set.t
  | Unknown

type t = {
  eff : Prim.effect_class;
  diverges : bool;
  faults : bool;
  exits : exits;
}

let class_rank = function
  | Prim.Pure -> 0
  | Prim.Observer -> 1
  | Prim.Mutator -> 2
  | Prim.Control -> 3
  | Prim.External -> 4

let class_join a b = if class_rank a >= class_rank b then a else b
let class_leq a b = class_rank a <= class_rank b

let bot = { eff = Prim.Pure; diverges = false; faults = false; exits = Exact Ident.Set.empty }
let top = { eff = Prim.External; diverges = true; faults = true; exits = Unknown }

let join_exits a b =
  match a, b with
  | Unknown, _ | _, Unknown -> Unknown
  | Exact x, Exact y -> Exact (Ident.Set.union x y)

let join a b =
  {
    eff = class_join a.eff b.eff;
    diverges = a.diverges || b.diverges;
    faults = a.faults || b.faults;
    exits = join_exits a.exits b.exits;
  }

let equal a b =
  a.eff = b.eff && a.diverges = b.diverges && a.faults = b.faults
  &&
  match a.exits, b.exits with
  | Unknown, Unknown -> true
  | Exact x, Exact y -> Ident.Set.equal x y
  | Exact _, Unknown | Unknown, Exact _ -> false

let exit_to c = { bot with exits = Exact (Ident.Set.singleton c) }
let read_only s = class_leq s.eff Prim.Observer

let exits_within s ids =
  match s.exits with
  | Unknown -> false
  | Exact ex -> Ident.Set.subset ex ids

let total s cc = (not s.diverges) && (not s.faults) && exits_within s (Ident.Set.singleton cc)

let pp_exits ppf = function
  | Unknown -> Format.pp_print_string ppf "?"
  | Exact ex ->
    Format.fprintf ppf "{%s}"
      (String.concat " " (List.map (fun id -> Ident.to_string id) (Ident.Set.elements ex)))

let pp ppf s =
  Format.fprintf ppf "%a%s%s -> %a" Prim.pp_effect_class s.eff
    (if s.diverges then " div" else "")
    (if s.faults then " fault" else "")
    pp_exits s.exits
