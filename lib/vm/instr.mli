(** The Tycoon abstract machine code.

    TML is compiled to a register-based machine in which — true to CPS —
    every transfer of control is a tail call (the "generalized goto with
    parameter passing" of Steele, quoted in section 2.1).  Continuation
    abstractions appearing literally in continuation argument positions are
    compiled to {e inline blocks} of the enclosing function (no closure is
    allocated for them); all other abstractions become separate functions
    plus a closure construction.  The [Y] primitive compiles to [Fix], which
    allocates a mutually recursive group of closures.

    Frames are arrays of virtual registers, one per function invocation;
    inlined continuation blocks write into the frame of their function. *)

type operand =
  | Reg of int            (** a virtual register of the current frame *)
  | Env of int            (** a slot of the current closure's environment *)
  | Const of Tml_core.Literal.t
  | Primconst of string   (** a primitive used as a first-class value *)

(** Destination of a continuation argument of a primitive call. *)
type cont_spec =
  | Cblock of int array * code
      (** inline block: bind the results to these registers, continue *)
  | Cval of operand
      (** an already-constructed continuation value *)

and code =
  | Tailcall of operand * operand list
  | Primop of string * operand list * cont_spec list
      (** primitive call: value operands, then continuation specs *)
  | Close of closdef list * code
      (** allocate closures, then continue *)
  | Fix of closdef list * code
      (** like [Close], but the captures may refer to the destination
          registers of the group itself (mutual recursion); all closures are
          allocated before any capture is read *)

and closdef = {
  dst : int;             (** register receiving the closure *)
  fn : int;              (** index into the unit's function table *)
  captures : operand array;
}

type func = {
  fn_name : string;
  arity : int;       (** parameters arrive in registers 0 .. arity-1 *)
  nregs : int;       (** frame size *)
  body : code;
}

(** A unit's compiled form; {!Jit} adds its constructor. *)
type compiled = ..

type compiled += Interpreted  (** not compiled (yet) *)

(** One unit per function nest.  Besides its bytecode a unit carries its
    own tier state, so the state lives and dies with the code: a fresh
    heap's units start cold, and a dropped heap takes their compiled
    forms with it (see {!Tierup}). *)
type unit_code = {
  funcs : func array;
  entry : int;  (** index of the entry function *)
  mutable heat : int;  (** closure entries the machine counted *)
  mutable compiled : compiled;
}

(** [make_unit funcs entry] is a cold, uncompiled unit. *)
val make_unit : func array -> int -> unit_code

(** {1 Serialization} *)

(** [encode_unit u] serializes to bytes (the executable-code-size measure of
    experiment E3). *)
val encode_unit : unit_code -> string

(** [decode_unit s] inverts [encode_unit].
    @raise Failure on malformed input. *)
val decode_unit : string -> unit_code

(** [pp_unit] — a disassembler for debugging and the CLI. *)
val pp_unit : Format.formatter -> unit_code -> unit
