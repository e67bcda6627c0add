(** Execution context and runtime behaviour of primitive procedures.

    The descriptor a primitive registers in {!Tml_core.Prim} covers the
    optimizer's needs (meta-evaluation, cost, attributes); its {e executable}
    behaviour is registered here, keyed by the same name, and shared by the
    tree-walking evaluator and the abstract machine.  Libraries adding
    primitives (the query substrate) register implementations through
    {!register_impl} — this is the extensibility story of section 2.3.

    An implementation receives the value arguments and the continuation
    arguments separately (both as runtime values) and answers which
    continuation to invoke with which results — "each primitive calls
    exactly one of its continuation arguments tail-recursively, passing the
    result of its computation". *)

type ctx = {
  heap : Value.Heap.heap;
  mutable handlers : Value.t list;  (** the [pushHandler] / [raise] stack *)
  mutable steps : int;  (** abstract-machine instructions executed *)
  mutable fuel : int;   (** remaining instruction budget; [max_int] = unlimited *)
  out : Buffer.t;       (** program output (captured for tests and demos) *)
  ccalls : (string, ccall_impl) Hashtbl.t;
  mutable subcall : Value.t -> Value.t list -> (Value.t, Value.t) result;
      (** re-entrant procedure call provided by the running engine, used by
          higher-order primitives (e.g. [select] applying its predicate);
          [Error] carries an exception value raised by the callee *)
  mutable durable_commit : (unit -> unit) option;
      (** installed when the heap is backed by a durable store ([Pstore]):
          commits the current heap state.  The reflective optimizer calls it
          after rewriting a function so optimized code and its derived
          attributes persist with the system state (section 4.1). *)
}

and ccall_impl = ctx -> Value.t list -> (Value.t, Value.t) result

(** [create ?fuel heap] makes a fresh context with the default ccall table
    installed. *)
val create : ?fuel:int -> Value.Heap.heap -> ctx

(** Raised by engines when [fuel] runs out. *)
exception Fuel_exhausted

(** Raised on conditions a correct front end never produces (arity and type
    violations, dangling references, out-of-bounds access). *)
exception Fault of string

val fault : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [charge ctx cost] accounts [cost] abstract instructions and checks the
    fuel budget.  @raise Fuel_exhausted *)
val charge : ctx -> int -> unit

type prim_result =
  | Invoke of Value.t * Value.t list
      (** tail-invoke this (continuation) value with these results *)

type impl = ctx -> Value.t list -> Value.t list -> prim_result

val register_impl : ?override:bool -> string -> impl -> unit
val find_impl : string -> impl option

(** [find_impl_exn name] @raise Fault for unimplemented primitives. *)
val find_impl_exn : string -> impl

(** [install ()] registers the implementations of all standard primitives
    ({!Tml_core.Primitives}) and installs the core registry too.
    Idempotent. *)
val install : unit -> unit

(** [is_standard_impl name] is true when the implementation currently
    registered for [name] is the exact closure [install] registered —
    i.e. nobody overrode it since.  Clients that specialize a
    primitive's behaviour (the compiled tier's inline fast paths) check
    this at compile time and fall back to the generic dispatch
    otherwise. *)
val is_standard_impl : string -> bool

(** {1 Value accessors} (raise {!Fault} on type mismatches) *)

val as_int : what:string -> Value.t -> int
val as_oid : what:string -> Value.t -> Tml_core.Oid.t

(** [as_array ctx ~what v] dereferences an OID to a mutable array.  A
    caller that writes into it reports the write
    ({!Value.Heap.note_write}). *)
val as_array : ctx -> what:string -> Value.t -> Value.t array

(** [as_indexable ctx ~what v] dereferences to the slots of an array, vector
    or tuple (read-only view). *)
val as_indexable : ctx -> what:string -> Value.t -> Value.t array
