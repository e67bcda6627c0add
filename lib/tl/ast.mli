(** Abstract syntax of TL, the Tycoon-Language-like source language of this
    reproduction.

    TL exists to {e feed} the intermediate representation: the paper's
    contribution is TML, and TL covers every source construct the paper's
    examples rely on — modules with encapsulated functions (the abstraction
    barriers of section 4.1), higher-order functions, imperative loops and
    mutable variables, arrays, tuples, exceptions, and embedded declarative
    queries (section 4.2). *)

type pos = {
  line : int;
  col : int;
}

val pp_pos : Format.formatter -> pos -> unit

type ty =
  | Tint
  | Treal
  | Tbool
  | Tchar
  | Tstring
  | Tunit
  | Tany  (** stdlib-internal dynamic type; rejected in user programs *)
  | Tarray of ty
  | Trel of ty
  | Ttuple of ty list
  | Tfun of ty list * ty

val ty_to_string : ty -> string

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
  | Eqname of string * string  (** [m.f] — a qualified module member *)
  | Ecall of expr * expr list
  | Ebinop of binop * expr * expr
  | Eunop of unop * expr
  | Eif of expr * expr * expr option
  | Elet of string * ty option * expr * expr
  | Evardef of string * ty option * expr * expr  (** [var x := e; rest] *)
  | Eassign of string * expr
  | Eseq of expr * expr
  | Ewhile of expr * expr
  | Efor of string * expr * bool * expr * expr  (** [bool] = upto *)
  | Efn of (string * ty) list * ty * expr
  | Earraylit of expr * expr  (** [array(n, init)] *)
  | Eindex of expr * expr
  | Estore of expr * expr * expr  (** [a[i] := v] *)
  | Etuple of expr list
  | Efield of expr * int  (** [e.1], 1-based *)
  | Eraise of expr
  | Etry of expr * string * expr  (** [try e handle x => e end] *)
  | Eprimcall of string * expr list * ty option  (** [prim "+" (a, b) : T] *)
  | Eccallx of string * expr list * ty option    (** [ccall "print_int" (n)] *)
  | Eselect of {
      target : expr;
      x : string;
      rel : expr;
      where : expr;
    }
  | Eexists of string * expr * expr   (** [exists x in r where p end] *)
  | Eforeach of string * expr * expr  (** [foreach x in r do e end] *)

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

