open Tml_core
module Codec = Tml_store.Codec

type operand =
  | Reg of int
  | Env of int
  | Const of Literal.t
  | Primconst of string

type cont_spec =
  | Cblock of int array * code
  | Cval of operand

and code =
  | Tailcall of operand * operand list
  | Primop of string * operand list * cont_spec list
  | Close of closdef list * code
  | Fix of closdef list * code

and closdef = {
  dst : int;
  fn : int;
  captures : operand array;
}

type func = {
  fn_name : string;
  arity : int;
  nregs : int;
  body : code;
}

type compiled = ..
type compiled += Interpreted

type unit_code = {
  funcs : func array;
  entry : int;
  mutable heat : int;
  mutable compiled : compiled;
}

let make_unit funcs entry = { funcs; entry; heat = 0; compiled = Interpreted }

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let w_operand w = function
  | Reg r ->
    Codec.W.u8 w 0;
    Codec.W.varint w r
  | Env e ->
    Codec.W.u8 w 1;
    Codec.W.varint w e
  | Const (Literal.Unit) -> Codec.W.u8 w 2
  | Const (Literal.Bool false) -> Codec.W.u8 w 3
  | Const (Literal.Bool true) -> Codec.W.u8 w 4
  | Const (Literal.Int i) ->
    Codec.W.u8 w 5;
    Codec.W.svarint w i
  | Const (Literal.Char c) ->
    Codec.W.u8 w 6;
    Codec.W.u8 w (Char.code c)
  | Const (Literal.Real r) ->
    Codec.W.u8 w 7;
    Codec.W.float64 w r
  | Const (Literal.Str s) ->
    Codec.W.u8 w 8;
    Codec.W.str w s
  | Const (Literal.Oid o) ->
    Codec.W.u8 w 9;
    Codec.W.varint w (Oid.to_int o)
  | Primconst name ->
    Codec.W.u8 w 10;
    Codec.W.str w name

let r_operand r =
  match Codec.R.u8 r with
  | 0 -> Reg (Codec.R.varint r)
  | 1 -> Env (Codec.R.varint r)
  | 2 -> Const Literal.Unit
  | 3 -> Const (Literal.Bool false)
  | 4 -> Const (Literal.Bool true)
  | 5 -> Const (Literal.Int (Codec.R.svarint r))
  | 6 -> Const (Literal.Char (Char.chr (Codec.R.u8 r land 0xff)))
  | 7 -> Const (Literal.Real (Codec.R.float64 r))
  | 8 -> Const (Literal.Str (Codec.R.str r))
  | 9 -> Const (Literal.Oid (Oid.of_int (Codec.R.varint r)))
  | 10 -> Primconst (Codec.R.str r)
  | t -> failwith (Printf.sprintf "Instr.decode: bad operand tag %d" t)

let w_list w f xs =
  Codec.W.varint w (List.length xs);
  List.iter (f w) xs

let r_list r f =
  let n = Codec.R.varint r in
  List.init n (fun _ -> f r)

let rec w_code w = function
  | Tailcall (f, args) ->
    Codec.W.u8 w 0;
    w_operand w f;
    w_list w w_operand args
  | Primop (name, vals, conts) ->
    Codec.W.u8 w 1;
    Codec.W.str w name;
    w_list w w_operand vals;
    w_list w w_cont conts
  | Close (defs, rest) ->
    Codec.W.u8 w 2;
    w_list w w_closdef defs;
    w_code w rest
  | Fix (defs, rest) ->
    Codec.W.u8 w 3;
    w_list w w_closdef defs;
    w_code w rest

and w_cont w = function
  | Cblock (regs, code) ->
    Codec.W.u8 w 0;
    Codec.W.varint w (Array.length regs);
    Array.iter (Codec.W.varint w) regs;
    w_code w code
  | Cval op ->
    Codec.W.u8 w 1;
    w_operand w op

and w_closdef w d =
  Codec.W.varint w d.dst;
  Codec.W.varint w d.fn;
  Codec.W.varint w (Array.length d.captures);
  Array.iter (w_operand w) d.captures

let rec r_code r =
  match Codec.R.u8 r with
  | 0 ->
    let f = r_operand r in
    let args = r_list r r_operand in
    Tailcall (f, args)
  | 1 ->
    let name = Codec.R.str r in
    let vals = r_list r r_operand in
    let conts = r_list r r_cont in
    Primop (name, vals, conts)
  | 2 ->
    let defs = r_list r r_closdef in
    let rest = r_code r in
    Close (defs, rest)
  | 3 ->
    let defs = r_list r r_closdef in
    let rest = r_code r in
    Fix (defs, rest)
  | t -> failwith (Printf.sprintf "Instr.decode: bad code tag %d" t)

and r_cont r =
  match Codec.R.u8 r with
  | 0 ->
    let n = Codec.R.varint r in
    let regs = Array.init n (fun _ -> Codec.R.varint r) in
    let code = r_code r in
    Cblock (regs, code)
  | 1 -> Cval (r_operand r)
  | t -> failwith (Printf.sprintf "Instr.decode: bad cont tag %d" t)

and r_closdef r =
  let dst = Codec.R.varint r in
  let fn = Codec.R.varint r in
  let n = Codec.R.varint r in
  let captures = Array.init n (fun _ -> r_operand r) in
  { dst; fn; captures }

let code_magic = "TMC1"

let encode_unit u =
  let w = Codec.W.create ~initial:1024 () in
  Codec.W.raw w code_magic;
  Codec.W.varint w (Array.length u.funcs);
  Array.iter
    (fun f ->
      Codec.W.str w f.fn_name;
      Codec.W.varint w f.arity;
      Codec.W.varint w f.nregs;
      w_code w f.body)
    u.funcs;
  Codec.W.varint w u.entry;
  Codec.W.contents w

let decode_unit s =
  let r = Codec.R.of_string s in
  let m = Codec.R.raw r (String.length code_magic) in
  if m <> code_magic then failwith "Instr.decode_unit: bad magic";
  let n = Codec.R.varint r in
  let funcs =
    Array.init n (fun _ ->
        let fn_name = Codec.R.str r in
        let arity = Codec.R.varint r in
        let nregs = Codec.R.varint r in
        let body = r_code r in
        { fn_name; arity; nregs; body })
  in
  let entry = Codec.R.varint r in
  make_unit funcs entry

(* ------------------------------------------------------------------ *)
(* Disassembler                                                         *)
(* ------------------------------------------------------------------ *)

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Env e -> Format.fprintf ppf "e%d" e
  | Const l -> Literal.pp ppf l
  | Primconst name -> Format.fprintf ppf "#%s" name

let pp_operands ppf ops =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_operand ppf ops

let rec pp_code ppf = function
  | Tailcall (f, args) -> Format.fprintf ppf "@[tailcall %a(%a)@]" pp_operand f pp_operands args
  | Primop (name, vals, conts) ->
    Format.fprintf ppf "@[<v>prim %s(%a)" name pp_operands vals;
    List.iteri
      (fun i c ->
        match c with
        | Cval op -> Format.fprintf ppf "@,  k%d -> %a" i pp_operand op
        | Cblock (regs, code) ->
          Format.fprintf ppf "@,  @[<v 2>k%d(%s):@,%a@]" i
            (String.concat "," (Array.to_list (Array.map (Printf.sprintf "r%d") regs)))
            pp_code code)
      conts;
    Format.fprintf ppf "@]"
  | (Close (defs, rest) | Fix (defs, rest)) as instr ->
    let kw =
      match instr with
      | Fix _ -> "fixclosure"
      | _ -> "closure"
    in
    List.iter
      (fun d ->
        Format.fprintf ppf "@[r%d := %s fn%d [%a]@]@," d.dst kw d.fn pp_operands
          (Array.to_list d.captures))
      defs;
    pp_code ppf rest

let pp_unit ppf u =
  Array.iteri
    (fun i f ->
      Format.fprintf ppf "@[<v 2>fn%d %s/%d (%d regs):@,%a@]@,@," i f.fn_name f.arity f.nregs
        pp_code f.body)
    u.funcs;
  Format.fprintf ppf "entry: fn%d@." u.entry
