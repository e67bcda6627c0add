(** Harness for the Stanford benchmark suite (the paper's section 6
    workload).

    Levels:
    - [Unopt]: library mode, no optimization — the raw compiler output.
    - [Static]: library mode, each definition optimized locally at compile
      time (before linking) — the paper's "local program optimizations",
      which cannot see through the dynamically bound libraries.
    - [Dynamic]: library mode, whole-program reflective optimization after
      linking ([Reflect.optimize_all]) — the paper's "move to dynamic
      (link-time or runtime) optimization".
    - [Direct]: ablation — the front end emits primitives inline instead of
      library calls (what a closed, monolithic compiler would do). *)

open Tml_vm

type level =
  | Unopt
  | Static
  | Dynamic
  | Direct

val levels : level list
val level_name : level -> string

type run_result = {
  outcome : Eval.outcome;
  steps : int;  (** abstract machine instructions *)
  output : string;
}

val all_names : string list

(** [source name] — the TL source. @raise Not_found *)
val source : string -> string

(** [load name level] — compile, link and (for [Dynamic]) reflectively
    optimize a fresh instance. *)
val load : string -> level -> Tml_frontend.Link.program

(** [run ?engine name level] — load and execute once. *)
val run : ?engine:[ `Tree | `Machine ] -> string -> level -> run_result

(** [run_loaded ?engine program] — execute an already-loaded instance,
    so a caller can time the run apart from loading and optimizing (the
    benchmark spine's stanford workload does). *)
val run_loaded : ?engine:[ `Tree | `Machine ] -> Tml_frontend.Link.program -> run_result

type size_report = {
  bytecode_bytes : int;   (** serialized executable code of all functions *)
  ptml_bytes : int;       (** persistent TML attached to them (section 6: the
                              code-size price of reflection) *)
  functions : int;
}

(** [code_size program] compiles every linked function and measures both
    representations (experiment E3). *)
val code_size : Tml_frontend.Link.program -> size_report
