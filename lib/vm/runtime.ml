open Tml_core

type ctx = {
  heap : Value.Heap.heap;
  mutable handlers : Value.t list;
  mutable steps : int;
  mutable fuel : int;
  out : Buffer.t;
  ccalls : (string, ccall_impl) Hashtbl.t;
  mutable subcall : Value.t -> Value.t list -> (Value.t, Value.t) result;
  mutable durable_commit : (unit -> unit) option;
}

and ccall_impl = ctx -> Value.t list -> (Value.t, Value.t) result

exception Fuel_exhausted
exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

let charge ctx cost =
  ctx.steps <- ctx.steps + cost;
  if ctx.fuel <> max_int then begin
    ctx.fuel <- ctx.fuel - cost;
    if ctx.fuel < 0 then raise Fuel_exhausted
  end

type prim_result = Invoke of Value.t * Value.t list
type impl = ctx -> Value.t list -> Value.t list -> prim_result

let impls : (string, impl) Hashtbl.t = Hashtbl.create 64

let register_impl ?(override = false) name impl =
  if (not override) && Hashtbl.mem impls name then
    invalid_arg (Printf.sprintf "Runtime.register_impl: %S already registered" name);
  Hashtbl.replace impls name impl

let find_impl name = Hashtbl.find_opt impls name

let find_impl_exn name =
  match find_impl name with
  | Some impl -> impl
  | None -> fault "primitive %S has no runtime implementation" name

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let as_int ~what = function
  | Value.Int i -> i
  | v -> fault "%s: expected int, got %s" what (Value.type_name v)

let as_real ~what = function
  | Value.Real r -> r
  | v -> fault "%s: expected real, got %s" what (Value.type_name v)

let as_bool ~what = function
  | Value.Bool b -> b
  | v -> fault "%s: expected bool, got %s" what (Value.type_name v)

let as_char ~what = function
  | Value.Char c -> c
  | v -> fault "%s: expected char, got %s" what (Value.type_name v)

let as_str ~what = function
  | Value.Str s -> s
  | v -> fault "%s: expected string, got %s" what (Value.type_name v)

let as_oid ~what = function
  | Value.Oidv o -> o
  | v -> fault "%s: expected oid, got %s" what (Value.type_name v)

let as_array ctx ~what v =
  match Value.Heap.get ctx.heap (as_oid ~what v) with
  | Value.Array slots -> slots
  | _ -> fault "%s: expected a mutable array" what

let as_indexable ctx ~what v =
  match Value.Heap.get ctx.heap (as_oid ~what v) with
  | Value.Array slots | Value.Vector slots | Value.Tuple slots -> slots
  | Value.Relation rel ->
    (* positional, read-only access to the rows of a relation:
       materialized once per version and memoized on the header (the
       query primitives iterate pages directly instead) *)
    Relcore.snapshot_rows ctx.heap rel
  | _ -> fault "%s: expected an array, vector, tuple or relation" what

let as_bytes ctx ~what v =
  match Value.Heap.get ctx.heap (as_oid ~what v) with
  | Value.Bytes b -> b
  | _ -> fault "%s: expected a byte array" what

(* report an in-place write into the array or byte array [v] refers to,
   which a store may have committed already *)
let wrote ctx ~what v = Value.Heap.note_write ctx.heap (as_oid ~what v)

(* ------------------------------------------------------------------ *)
(* Standard implementations                                             *)
(* ------------------------------------------------------------------ *)

let exn_str s = Value.Str s
let ret k v = Invoke (k, [ v ])

let int_arith name checked =
  fun _ctx values conts ->
    match values, conts with
    | [ a; b ], [ ce; cc ] -> (
      let a = as_int ~what:name a and b = as_int ~what:name b in
      match checked a b with
      | Some r -> ret cc (Value.Int r)
      | None ->
        let msg =
          if (name = "/" || name = "%") && b = 0 then Primitives.div_zero_message
          else Primitives.overflow_message
        in
        ret ce (exn_str msg))
    | _ -> fault "%s: bad arguments" name

let int_cmp name op =
  fun _ctx values conts ->
    match values, conts with
    | [ a; b ], [ c_then; c_else ] ->
      let a = as_int ~what:name a and b = as_int ~what:name b in
      Invoke ((if op a b then c_then else c_else), [])
    | _ -> fault "%s: bad arguments" name

let bit_op name op =
  fun _ctx values conts ->
    match values, conts with
    | [ a; b ], [ k ] ->
      ret k (Value.Int (op (as_int ~what:name a) (as_int ~what:name b)))
    | _ -> fault "%s: bad arguments" name

let unop name f =
  fun _ctx values conts ->
    match values, conts with
    | [ a ], [ k ] -> ret k (f a)
    | _ -> fault "%s: bad arguments" name

let real_arith name op =
  fun _ctx values conts ->
    match values, conts with
    | [ a; b ], [ k ] -> ret k (Value.Real (op (as_real ~what:name a) (as_real ~what:name b)))
    | _ -> fault "%s: bad arguments" name

let real_cmp name op =
  fun _ctx values conts ->
    match values, conts with
    | [ a; b ], [ c_then; c_else ] ->
      Invoke ((if op (as_real ~what:name a) (as_real ~what:name b) then c_then else c_else), [])
    | _ -> fault "%s: bad arguments" name

let bool_op name op =
  fun _ctx values conts ->
    match values, conts with
    | [ a; b ], [ k ] -> ret k (Value.Bool (op (as_bool ~what:name a) (as_bool ~what:name b)))
    | _ -> fault "%s: bad arguments" name

let check_bounds ~what slots i =
  if i < 0 || i >= Array.length slots then
    fault "%s: index %d out of bounds (size %d)" what i (Array.length slots)

let check_bbounds ~what b i =
  if i < 0 || i >= Bytes.length b then
    fault "%s: index %d out of bounds (size %d)" what i (Bytes.length b)

let standard_impls () : (string * impl) list =
  [
    "+", int_arith "+" Primitives.add_checked;
    "-", int_arith "-" Primitives.sub_checked;
    "*", int_arith "*" Primitives.mul_checked;
    "/", int_arith "/" Primitives.div_checked;
    "%", int_arith "%" Primitives.rem_checked;
    "<", int_cmp "<" ( < );
    "<=", int_cmp "<=" ( <= );
    ">", int_cmp ">" ( > );
    ">=", int_cmp ">=" ( >= );
    "band", bit_op "band" ( land );
    "bor", bit_op "bor" ( lor );
    "bxor", bit_op "bxor" ( lxor );
    ( "bshl",
      bit_op "bshl" (fun a b ->
          if b < 0 || b >= Sys.int_size then fault "bshl: shift %d out of range" b else a lsl b)
    );
    ( "bshr",
      bit_op "bshr" (fun a b ->
          if b < 0 || b >= Sys.int_size then fault "bshr: shift %d out of range" b else a asr b)
    );
    "bnot", unop "bnot" (fun v -> Value.Int (lnot (as_int ~what:"bnot" v)));
    "char2int", unop "char2int" (fun v -> Value.Int (Char.code (as_char ~what:"char2int" v)));
    ( "int2char",
      unop "int2char" (fun v -> Value.Char (Char.chr (as_int ~what:"int2char" v land 0xff))) );
    ( "int2real",
      unop "int2real" (fun v -> Value.Real (float_of_int (as_int ~what:"int2real" v))) );
    ( "real2int",
      unop "real2int" (fun v ->
          let r = as_real ~what:"real2int" v in
          if Float.is_finite r && Float.abs r < 0x1p62 then Value.Int (int_of_float r)
          else fault "real2int: %g not representable" r) );
    "f+", real_arith "f+" ( +. );
    "f-", real_arith "f-" ( -. );
    "f*", real_arith "f*" ( *. );
    "f/", real_arith "f/" ( /. );
    "fneg", unop "fneg" (fun v -> Value.Real (-.as_real ~what:"fneg" v));
    "sqrt", unop "sqrt" (fun v -> Value.Real (Float.sqrt (as_real ~what:"sqrt" v)));
    "fsin", unop "fsin" (fun v -> Value.Real (Float.sin (as_real ~what:"fsin" v)));
    "fcos", unop "fcos" (fun v -> Value.Real (Float.cos (as_real ~what:"fcos" v)));
    "f<", real_cmp "f<" ( < );
    "f<=", real_cmp "f<=" ( <= );
    "f>", real_cmp "f>" ( > );
    "f>=", real_cmp "f>=" ( >= );
    "and", bool_op "and" ( && );
    "or", bool_op "or" ( || );
    "not", unop "not" (fun v -> Value.Bool (not (as_bool ~what:"not" v)));
    ( "sconcat",
      fun _ctx values conts ->
        match values, conts with
        | [ a; b ], [ k ] ->
          ret k (Value.Str (as_str ~what:"sconcat" a ^ as_str ~what:"sconcat" b))
        | _ -> fault "sconcat: bad arguments" );
    "slen", unop "slen" (fun v -> Value.Int (String.length (as_str ~what:"slen" v)));
    ( "s[]",
      fun _ctx values conts ->
        match values, conts with
        | [ s; i ], [ k ] ->
          let s = as_str ~what:"s[]" s and i = as_int ~what:"s[]" i in
          if i < 0 || i >= String.length s then
            fault "s[]: index %d out of bounds (length %d)" i (String.length s)
          else ret k (Value.Char s.[i])
        | _ -> fault "s[]: bad arguments" );
    ( "substr",
      fun _ctx values conts ->
        match values, conts with
        | [ s; pos; len ], [ k ] ->
          let s = as_str ~what:"substr" s in
          let pos = as_int ~what:"substr" pos and len = as_int ~what:"substr" len in
          if pos < 0 || len < 0 || pos + len > String.length s then
            fault "substr: range %d+%d out of bounds (length %d)" pos len (String.length s)
          else ret k (Value.Str (String.sub s pos len))
        | _ -> fault "substr: bad arguments" );
    ( "char2str",
      unop "char2str" (fun v -> Value.Str (String.make 1 (as_char ~what:"char2str" v))) );
    ( "int2str",
      unop "int2str" (fun v -> Value.Str (string_of_int (as_int ~what:"int2str" v))) );
    ( "str2int",
      fun _ctx values conts ->
        match values, conts with
        | [ s ], [ ce; cc ] -> (
          let s = as_str ~what:"str2int" s in
          match int_of_string_opt (String.trim s) with
          | Some i -> ret cc (Value.Int i)
          | None -> ret ce (exn_str ("not an integer: " ^ s)))
        | _ -> fault "str2int: bad arguments" );
    ( "scmp",
      fun _ctx values conts ->
        match values, conts with
        | [ a; b ], [ k ] ->
          ret k
            (Value.Int
               (compare (String.compare (as_str ~what:"scmp" a) (as_str ~what:"scmp" b)) 0))
        | _ -> fault "scmp: bad arguments" );
    ( "array",
      fun ctx values conts ->
        match conts with
        | [ k ] ->
          ret k (Value.Oidv (Value.Heap.alloc ctx.heap (Value.Array (Array.of_list values))))
        | _ -> fault "array: bad arguments" );
    ( "vector",
      fun ctx values conts ->
        match conts with
        | [ k ] ->
          ret k (Value.Oidv (Value.Heap.alloc ctx.heap (Value.Vector (Array.of_list values))))
        | _ -> fault "vector: bad arguments" );
    ( "new",
      fun ctx values conts ->
        match values, conts with
        | [ n; init ], [ k ] ->
          let n = as_int ~what:"new" n in
          if n < 0 then fault "new: negative size %d" n;
          ret k (Value.Oidv (Value.Heap.alloc ctx.heap (Value.Array (Array.make n init))))
        | _ -> fault "new: bad arguments" );
    ( "bnew",
      fun ctx values conts ->
        match values, conts with
        | [ n; init ], [ k ] ->
          let n = as_int ~what:"bnew" n in
          if n < 0 then fault "bnew: negative size %d" n;
          let byte = as_int ~what:"bnew" init land 0xff in
          ret k
            (Value.Oidv (Value.Heap.alloc ctx.heap (Value.Bytes (Bytes.make n (Char.chr byte)))))
        | _ -> fault "bnew: bad arguments" );
    ( "[]",
      fun ctx values conts ->
        match values, conts with
        | [ a; i ], [ k ] ->
          let slots = as_indexable ctx ~what:"[]" a in
          let i = as_int ~what:"[]" i in
          check_bounds ~what:"[]" slots i;
          ret k slots.(i)
        | _ -> fault "[]: bad arguments" );
    ( "[:=]",
      fun ctx values conts ->
        match values, conts with
        | [ a; i; v ], [ k ] ->
          let slots = as_array ctx ~what:"[:=]" a in
          let i = as_int ~what:"[:=]" i in
          check_bounds ~what:"[:=]" slots i;
          slots.(i) <- v;
          wrote ctx ~what:"[:=]" a;
          ret k Value.Unit
        | _ -> fault "[:=]: bad arguments" );
    ( "b[]",
      fun ctx values conts ->
        match values, conts with
        | [ a; i ], [ k ] ->
          let b = as_bytes ctx ~what:"b[]" a in
          let i = as_int ~what:"b[]" i in
          check_bbounds ~what:"b[]" b i;
          ret k (Value.Int (Char.code (Bytes.get b i)))
        | _ -> fault "b[]: bad arguments" );
    ( "b[:=]",
      fun ctx values conts ->
        match values, conts with
        | [ a; i; v ], [ k ] ->
          let b = as_bytes ctx ~what:"b[:=]" a in
          let i = as_int ~what:"b[:=]" i in
          check_bbounds ~what:"b[:=]" b i;
          Bytes.set b i (Char.chr (as_int ~what:"b[:=]" v land 0xff));
          wrote ctx ~what:"b[:=]" a;
          ret k Value.Unit
        | _ -> fault "b[:=]: bad arguments" );
    ( "size",
      fun ctx values conts ->
        match values, conts with
        | [ a ], [ k ] -> ret k (Value.Int (Array.length (as_indexable ctx ~what:"size" a)))
        | _ -> fault "size: bad arguments" );
    ( "bsize",
      fun ctx values conts ->
        match values, conts with
        | [ a ], [ k ] -> ret k (Value.Int (Bytes.length (as_bytes ctx ~what:"bsize" a)))
        | _ -> fault "bsize: bad arguments" );
    ( "move",
      fun ctx values conts ->
        match values, conts with
        | [ src; soff; dst; doff; len ], [ k ] ->
          let s = as_indexable ctx ~what:"move" src in
          let d = as_array ctx ~what:"move" dst in
          let soff = as_int ~what:"move" soff
          and doff = as_int ~what:"move" doff
          and len = as_int ~what:"move" len in
          if
            len < 0 || soff < 0 || doff < 0
            || soff + len > Array.length s
            || doff + len > Array.length d
          then fault "move: range out of bounds";
          Array.blit s soff d doff len;
          wrote ctx ~what:"move" dst;
          ret k Value.Unit
        | _ -> fault "move: bad arguments" );
    ( "bmove",
      fun ctx values conts ->
        match values, conts with
        | [ src; soff; dst; doff; len ], [ k ] ->
          let s = as_bytes ctx ~what:"bmove" src in
          let d = as_bytes ctx ~what:"bmove" dst in
          let soff = as_int ~what:"bmove" soff
          and doff = as_int ~what:"bmove" doff
          and len = as_int ~what:"bmove" len in
          if
            len < 0 || soff < 0 || doff < 0
            || soff + len > Bytes.length s
            || doff + len > Bytes.length d
          then fault "bmove: range out of bounds";
          Bytes.blit s soff d doff len;
          wrote ctx ~what:"bmove" dst;
          ret k Value.Unit
        | _ -> fault "bmove: bad arguments" );
    ( "==",
      fun _ctx values conts ->
        match values with
        | scrutinee :: tags ->
          let n_tags = List.length tags and n_conts = List.length conts in
          if not (n_conts = n_tags || n_conts = n_tags + 1) then
            fault "==: %d tags with %d continuations" n_tags n_conts;
          let rec scan tags branches =
            match tags, branches with
            | tag :: tags', branch :: branches' ->
              if Value.identical scrutinee tag then Invoke (branch, [])
              else scan tags' branches'
            | [], [ default ] -> Invoke (default, [])
            | [], [] -> fault "==: no branch matches %s" (Value.to_string scrutinee)
            | _ -> assert false
          in
          scan tags conts
        | [] -> fault "==: missing scrutinee" );
    ( "ccall",
      fun ctx values conts ->
        match values, conts with
        | name :: args, [ ce; cc ] -> (
          let name = as_str ~what:"ccall" name in
          match Hashtbl.find_opt ctx.ccalls name with
          | None -> fault "ccall: unknown host function %S" name
          | Some f -> (
            match f ctx args with
            | Ok v -> ret cc v
            | Error e -> ret ce e))
        | _ -> fault "ccall: bad arguments" );
    ( "pushHandler",
      fun ctx values conts ->
        match values, conts with
        | [], [ handler; k ] ->
          ctx.handlers <- handler :: ctx.handlers;
          Invoke (k, [])
        | _ -> fault "pushHandler: bad arguments" );
    ( "popHandler",
      fun ctx values conts ->
        match values, conts with
        | [], [ k ] -> (
          match ctx.handlers with
          | _ :: rest ->
            ctx.handlers <- rest;
            Invoke (k, [])
          | [] -> fault "popHandler: empty handler stack")
        | _ -> fault "popHandler: bad arguments" );
    ( "raise",
      fun ctx values conts ->
        match values, conts with
        | [ v ], [] -> (
          match ctx.handlers with
          | handler :: rest ->
            ctx.handlers <- rest;
            Invoke (handler, [ v ])
          | [] -> Invoke (Value.Halt false, [ v ]))
        | _ -> fault "raise: bad arguments" );
  ]

let installed = ref false

(* the exact closures registered by [install]; [is_standard_impl] lets
   clients that hard-code a primitive's behaviour (the closure-compiling
   tier's fast paths) verify the registered implementation has not been
   overridden since *)
let std_table : (string, impl) Hashtbl.t = Hashtbl.create 64

let install () =
  if not !installed then begin
    installed := true;
    Primitives.install ();
    List.iter
      (fun (name, impl) ->
        Hashtbl.replace std_table name impl;
        register_impl ~override:true name impl)
      (standard_impls ())
  end

let is_standard_impl name =
  match Hashtbl.find_opt std_table name, find_impl name with
  | Some a, Some b -> a == b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Context and default host functions                                   *)
(* ------------------------------------------------------------------ *)

let default_ccalls : (string * ccall_impl) list =
  [
    ( "print_str",
      fun ctx args ->
        match args with
        | [ v ] ->
          Buffer.add_string ctx.out (as_str ~what:"print_str" v);
          Ok Value.Unit
        | _ -> fault "print_str: bad arguments" );
    ( "print_int",
      fun ctx args ->
        match args with
        | [ v ] ->
          Buffer.add_string ctx.out (string_of_int (as_int ~what:"print_int" v));
          Ok Value.Unit
        | _ -> fault "print_int: bad arguments" );
    ( "print_char",
      fun ctx args ->
        match args with
        | [ v ] ->
          Buffer.add_char ctx.out (as_char ~what:"print_char" v);
          Ok Value.Unit
        | _ -> fault "print_char: bad arguments" );
    ( "print_real",
      fun ctx args ->
        match args with
        | [ v ] ->
          Buffer.add_string ctx.out (Printf.sprintf "%.6g" (as_real ~what:"print_real" v));
          Ok Value.Unit
        | _ -> fault "print_real: bad arguments" );
    ( "newline",
      fun ctx args ->
        match args with
        | [] | [ Value.Unit ] ->
          Buffer.add_char ctx.out '\n';
          Ok Value.Unit
        | _ -> fault "newline: bad arguments" );
  ]

let create ?(fuel = max_int) heap =
  install ();
  let ctx =
    {
      heap;
      handlers = [];
      steps = 0;
      fuel;
      out = Buffer.create 256;
      ccalls = Hashtbl.create 16;
      subcall = (fun _ _ -> fault "no engine installed for re-entrant calls");
      durable_commit = None;
    }
  in
  List.iter (fun (name, f) -> Hashtbl.replace ctx.ccalls name f) default_ccalls;
  ctx
