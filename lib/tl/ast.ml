type pos = {
  line : int;
  col : int;
}

let pp_pos ppf p = Format.fprintf ppf "line %d, column %d" p.line p.col

type ty =
  | Tint
  | Treal
  | Tbool
  | Tchar
  | Tstring
  | Tunit
  | Tany
  | Tarray of ty
  | Trel of ty
  | Ttuple of ty list
  | Tfun of ty list * ty

let rec pp_ty ppf = function
  | Tint -> Format.pp_print_string ppf "Int"
  | Treal -> Format.pp_print_string ppf "Real"
  | Tbool -> Format.pp_print_string ppf "Bool"
  | Tchar -> Format.pp_print_string ppf "Char"
  | Tstring -> Format.pp_print_string ppf "String"
  | Tunit -> Format.pp_print_string ppf "Unit"
  | Tany -> Format.pp_print_string ppf "Any"
  | Tarray t -> Format.fprintf ppf "Array(%a)" pp_ty t
  | Trel t -> Format.fprintf ppf "Rel(%a)" pp_ty t
  | Ttuple ts ->
    Format.fprintf ppf "Tuple(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_ty)
      ts
  | Tfun (args, ret) ->
    Format.fprintf ppf "Fun(%a): %a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_ty)
      args pp_ty ret

let ty_to_string t = Format.asprintf "%a" pp_ty t

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop =
  | Neg
  | Not

type expr = {
  desc : desc;
  pos : pos;
}

and desc =
  | Eunit
  | Ebool of bool
  | Eint of int
  | Ereal of float
  | Echar of char
  | Estr of string
  | Evar of string
  | Eqname of string * string
  | Ecall of expr * expr list
  | Ebinop of binop * expr * expr
  | Eunop of unop * expr
  | Eif of expr * expr * expr option
  | Elet of string * ty option * expr * expr
  | Evardef of string * ty option * expr * expr
  | Eassign of string * expr
  | Eseq of expr * expr
  | Ewhile of expr * expr
  | Efor of string * expr * bool * expr * expr
  | Efn of (string * ty) list * ty * expr
  | Earraylit of expr * expr
  | Eindex of expr * expr
  | Estore of expr * expr * expr
  | Etuple of expr list
  | Efield of expr * int
  | Eraise of expr
  | Etry of expr * string * expr
  | Eprimcall of string * expr list * ty option
  | Eccallx of string * expr list * ty option
  | Eselect of {
      target : expr;
      x : string;
      rel : expr;
      where : expr;
    }
  | Eexists of string * expr * expr
  | Eforeach of string * expr * expr

type def =
  | Dfun of {
      name : string;
      params : (string * ty) list;
      ret : ty;
      body : expr;
      pos : pos;
    }
  | Dval of {
      name : string;
      ty : ty option;
      body : expr;
      pos : pos;
    }

type item =
  | Imodule of string * def list
  | Idef of def
  | Ido of expr

type program = item list
