open Tml_core

module Keys = Map.Make (struct
  type t = Literal.t

  let compare = Stdlib.compare
end)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Char of char
  | Real of float
  | Str of string
  | Oidv of Oid.t
  | Primv of string
  | Closure of tree_closure
  | Mclosure of mclosure
  | Mblock of mblock
  | Halt of bool

and tree_closure = {
  t_abs : Term.abs;
  mutable t_env : t Ident.Map.t;
}

and mclosure = {
  m_unit : Instr.unit_code;
  m_fn : int;
  m_env : t array;
}

and mblock = {
  b_frame : t array;
  b_unit : Instr.unit_code;
  b_env : t array;
  b_regs : int array;
  b_code : Instr.code;
}

type obj =
  | Array of t array
  | Vector of t array
  | Bytes of bytes
  | Tuple of t array
  | Module of module_obj
  | Relation of relation
  | Func of func_obj
  | Index of index_obj
  | Stats of stats_obj

and module_obj = {
  mod_name : string;
  exports : (string * t) array;
}

and relation = {
  rel_name : string;
  rel_page_size : int;
  mutable rel_pages : Oid.t array;
      (** sealed row pages: each a [Vector] of exactly [rel_page_size]
          rows, faulted on demand — the full row array is never
          materialized by the relation object itself *)
  mutable rel_tail : t array;  (** growable tail buffer (capacity array) *)
  mutable rel_tail_len : int;  (** valid prefix of [rel_tail] *)
  mutable rel_count : int;  (** total logical rows = pages*page_size + tail_len *)
  mutable rel_indexes : (int * Oid.t) list;
      (** field -> sibling [Index] store object, persisted with the relation *)
  mutable rel_stats : Oid.t option;  (** sibling [Stats] store object *)
  mutable rel_triggers : t list;
      (** stored trigger procedures, called with each inserted tuple *)
  mutable rel_rows_cache : t array option;
      (** transient materialization for positional access; never serialized *)
}

and index_obj = {
  ix_field : int;
  mutable ix_keys : int list Keys.t;
      (** key -> row positions, newest (largest) first *)
  mutable ix_distinct : int;  (** [Keys.cardinal ix_keys], kept *)
}

and stats_obj = {
  mutable st_count : int;
  mutable st_arity : int;  (** tuple width, -1 when unknown *)
  mutable st_distinct : (int * int) list;
      (** per-indexed-field distinct-key counts *)
}

and func_obj = {
  fo_name : string;
  fo_tml : Term.value;
  fo_ptml : string;
  mutable fo_bindings : (Ident.t * t) list;
  mutable fo_tree_impl : t option;
  mutable fo_mach_impl : t option;
  mutable fo_code : Instr.unit_code option;
  mutable fo_summary : Tml_analysis.Infer.summary option;
  mutable fo_attrs : (string * int) list;
}

let index_create field = { ix_field = field; ix_keys = Keys.empty; ix_distinct = 0 }

let index_add ix key pos =
  ix.ix_keys <-
    Keys.update key
      (function
        | Some ps -> Some (pos :: ps)
        | None ->
          ix.ix_distinct <- ix.ix_distinct + 1;
          Some [ pos ])
      ix.ix_keys

module Heap = struct
  type heap = {
    mutable objs : obj option array;
    mutable next : int;
    mutable gen : int;
        (* bumped whenever a slot is replaced, evicted or truncated away;
           lets the compiled tier validate per-site inline caches *)
    mutable fault : (Oid.t -> obj option) option;
    mutable on_update : (Oid.t -> unit) option;
  }

  let create () =
    {
      objs = Array.make 64 None;
      next = 0;
      gen = 0;
      fault = None;
      on_update = None;
    }

  let generation heap = heap.gen
  let set_fault_hook heap f = heap.fault <- Some f
  let set_update_hook heap f = heap.on_update <- Some f

  let clear_hooks heap =
    heap.fault <- None;
    heap.on_update <- None

  let ensure_capacity heap n =
    if n > Array.length heap.objs then begin
      let cap = ref (Array.length heap.objs) in
      while n > !cap do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap None in
      Array.blit heap.objs 0 bigger 0 heap.next;
      heap.objs <- bigger
    end

  let reserve heap n =
    ensure_capacity heap n;
    if n > heap.next then heap.next <- n

  let alloc heap obj =
    ensure_capacity heap (heap.next + 1);
    let ix = heap.next in
    heap.objs.(ix) <- Some obj;
    heap.next <- ix + 1;
    Oid.of_int ix

  let peek heap oid =
    let ix = Oid.to_int oid in
    if ix >= 0 && ix < heap.next then heap.objs.(ix) else None

  let get_opt heap oid =
    let ix = Oid.to_int oid in
    if ix < 0 || ix >= heap.next then None
    else begin
      match heap.objs.(ix) with
      | Some _ as r -> r
      | None -> (
        match heap.fault with
        | None -> None
        | Some f -> (
          match f oid with
          | Some obj as r ->
            heap.objs.(ix) <- Some obj;
            r
          | None -> None))
    end

  let get heap oid =
    match get_opt heap oid with
    | Some obj -> obj
    | None -> invalid_arg (Printf.sprintf "Heap.get: dangling %s" (Oid.to_string oid))

  let note_write heap oid =
    match heap.on_update with
    | Some f -> f oid
    | None -> ()

  let set heap oid obj =
    let ix = Oid.to_int oid in
    if ix < 0 || ix >= heap.next then
      invalid_arg (Printf.sprintf "Heap.set: dangling %s" (Oid.to_string oid));
    heap.gen <- heap.gen + 1;
    heap.objs.(ix) <- Some obj;
    note_write heap oid

  let evict heap oid =
    let ix = Oid.to_int oid in
    if ix >= 0 && ix < heap.next then begin
      heap.gen <- heap.gen + 1;
      heap.objs.(ix) <- None
    end

  let truncate heap n =
    if n < 0 || n > heap.next then
      invalid_arg (Printf.sprintf "Heap.truncate: %d outside 0..%d" n heap.next);
    heap.gen <- heap.gen + 1;
    Array.fill heap.objs n (heap.next - n) None;
    heap.next <- n

  let is_loaded heap oid =
    let ix = Oid.to_int oid in
    ix >= 0
    && ix < heap.next
    &&
    match heap.objs.(ix) with
    | Some _ -> true
    | None -> false

  let loaded_count heap =
    let n = ref 0 in
    for ix = 0 to heap.next - 1 do
      match heap.objs.(ix) with
      | Some _ -> incr n
      | None -> ()
    done;
    !n

  let size heap = heap.next

  let iter f heap =
    for ix = 0 to heap.next - 1 do
      match heap.objs.(ix) with
      | Some obj -> f (Oid.of_int ix) obj
      | None -> ()
    done

  let alloc_func heap ~name ?(bindings = []) tml =
    alloc heap
      (Func
         {
           fo_name = name;
           fo_tml = tml;
           fo_ptml = Tml_store.Ptml.encode_value tml;
           fo_bindings = bindings;
           fo_tree_impl = None;
           fo_mach_impl = None;
           fo_code = None;
           fo_summary = None;
           fo_attrs = [];
         })
end

let identical a b =
  match a, b with
  | Unit, Unit -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Char a, Char b -> a = b
  | Real a, Real b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Str a, Str b -> String.equal a b
  | Oidv a, Oidv b -> Oid.equal a b
  | Primv a, Primv b -> String.equal a b
  | Closure a, Closure b -> a == b
  | Mclosure a, Mclosure b -> a == b
  | Mblock a, Mblock b -> a == b
  | Halt a, Halt b -> a = b
  | _ -> false

let of_literal = function
  | Literal.Unit -> Unit
  | Literal.Bool b -> Bool b
  | Literal.Int i -> Int i
  | Literal.Char c -> Char c
  | Literal.Real r -> Real r
  | Literal.Str s -> Str s
  | Literal.Oid o -> Oidv o

let to_literal = function
  | Unit -> Some Literal.Unit
  | Bool b -> Some (Literal.Bool b)
  | Int i -> Some (Literal.Int i)
  | Char c -> Some (Literal.Char c)
  | Real r -> Some (Literal.Real r)
  | Str s -> Some (Literal.Str s)
  | Oidv o -> Some (Literal.Oid o)
  | Primv _ | Closure _ | Mclosure _ | Mblock _ | Halt _ -> None

let type_name = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Char _ -> "char"
  | Real _ -> "real"
  | Str _ -> "string"
  | Oidv _ -> "oid"
  | Primv _ -> "primitive"
  | Closure _ -> "closure"
  | Mclosure _ -> "machine-closure"
  | Mblock _ -> "machine-block"
  | Halt _ -> "halt"

let pp ppf = function
  | Unit -> Format.pp_print_string ppf "nil"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Char c -> Format.fprintf ppf "'%s'" (Char.escaped c)
  | Real r -> Format.fprintf ppf "%g" r
  | Str s -> Format.fprintf ppf "%S" s
  | Oidv o -> Oid.pp ppf o
  | Primv name -> Format.fprintf ppf "#%s" name
  | Closure c -> Format.fprintf ppf "<closure/%d>" (List.length c.t_abs.Term.params)
  | Mclosure c -> Format.fprintf ppf "<mclosure fn%d>" c.m_fn
  | Mblock _ -> Format.pp_print_string ppf "<mblock>"
  | Halt ok -> Format.fprintf ppf "<halt %b>" ok

let to_string v = Format.asprintf "%a" pp v
