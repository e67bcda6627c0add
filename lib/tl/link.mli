(** Compilation units and the runtime linker (figure 3).

    A compiled definition is a TML [proc] abstraction whose free identifiers
    denote globals ("module names, database names, table names, function
    names, constant names"); static optimization happens {e before} linking,
    when those identifiers are still opaque.  Linking allocates a function
    object in the store for every definition (with its PTML), evaluates
    value definitions, and establishes the R-value bindings
    ([identifier, value] pairs) each function's free identifiers resolve to —
    the material the reflective optimizer later exploits. *)

open Tml_core
open Tml_vm

type options = {
  mode : Lower.mode;
  static_opt : Optimizer.config option;
      (** optimize each definition locally at compile time (experiment E1's
          "static" level); [None] = no optimization *)
  include_stdlib : bool;
}

val default_options : options

(** [compile ?options src] — parse, type-check (with the TL standard library
    prelude), CPS-convert and optionally statically optimize.
    @raise Parser.Parse_error, Lexer.Lex_error, Typecheck.Type_error *)
val compile : ?options:options -> string -> Lower.compiled

type program = {
  ctx : Runtime.ctx;
  globals : (string, Value.t) Hashtbl.t;  (** canonical name → linked value *)
  func_oids : (string * Oid.t) list;      (** function objects, in link order *)
  module_oids : (string * Oid.t) list;    (** [Module] store objects, one per TL module *)
  main_oid : Oid.t option;
  compiled : Lower.compiled;
}

(** [link ?ctx compiled] — allocate function objects, evaluate value
    definitions (on the abstract machine), and resolve all bindings. *)
val link : ?ctx:Runtime.ctx -> Lower.compiled -> program

(** [load ?options ?ctx src] = [link (compile src)]. *)
val load : ?options:options -> ?ctx:Runtime.ctx -> string -> program

(** [run_main program ~engine ()] runs the program's main procedure and
    returns the outcome together with the abstract instructions executed. *)
val run_main :
  program -> engine:[ `Tree | `Machine ] -> ?fuel:int -> unit -> Eval.outcome * int

(** [run_function program name args ~engine] applies a linked function. *)
val run_function :
  program ->
  string ->
  Value.t list ->
  engine:[ `Tree | `Machine ] ->
  Eval.outcome * int

(** [output program] — everything the program printed so far. *)
val output : program -> string

(** [function_oid program name] @raise Not_found *)
val function_oid : program -> string -> Oid.t

(** [all_function_oids program] — including the standard library and main. *)
val all_function_oids : program -> Oid.t list
