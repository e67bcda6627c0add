(** The TL tokenizer. *)

type token =
  | INT of int
  | REAL of float
  | CHAR of char
  | STRING of string
  | ID of string      (** lowercase identifiers *)
  | TYID of string    (** capitalized identifiers (type names) *)
  | KW of string      (** keywords: module, end, let, var, fn, if, ... *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ARROW      (** [=>] *)
  | ASSIGN     (** [:=] *)
  | EQ         (** [=] *)
  | OP of string  (** operators: + - * / % < <= > >= == != && || ! *)
  | EOF

val pp_token : Format.formatter -> token -> unit

exception Lex_error of Ast.pos * string

(** [tokenize src] produces the token stream with positions.
    @raise Lex_error *)
val tokenize : string -> (token * Ast.pos) list

