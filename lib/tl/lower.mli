(** CPS conversion: typed TL to TML.

    The conversion is "smart" (administrative-redex-free in the common
    cases): intermediate results flow through meta-level continuations; TML
    continuation abstractions are created only where control actually joins
    or transfers.  Exceptions are threaded lexically through [ce]
    continuation parameters exactly as section 2.3 describes: [raise]
    invokes the current [ce], [try ... handle] installs a new one, and every
    procedure call forwards it.  Loops compile to applications of the [Y]
    primitive in the canonical shape of the paper's [for] example.

    In [Library] mode, integer/real arithmetic, comparisons and array
    operations compile to calls of the dynamically bound [intlib] /
    [reallib] / [arraylib] standard-library procedures — this reproduces the
    situation of section 6, where "even operations on integers and arrays
    are factored out into dynamically bound libraries and therefore not
    amenable to local optimization".  [Direct] mode emits the primitives
    inline (the ablation baseline). *)

open Tml_core

type mode =
  | Library
  | Direct

type compiled_def = {
  c_name : string;  (** canonical global name *)
  c_tml : Term.value;  (** a [proc] abstraction; free identifiers are globals *)
  c_is_fun : bool;
  c_prov : Tml_obs.Provenance.t;
      (** derivation log of the static optimization pass, when provenance
          recording was enabled; [[]] otherwise *)
}

type compiled = {
  c_defs : compiled_def list;
  c_main : Term.value option;  (** [proc(ce cc)] *)
  c_global_ids : (string, Ident.t) Hashtbl.t;
      (** canonical global name → the shared identifier used for free
          references to it *)
}

(** [lower_program ~mode tprog] converts every definition and the main
    expression.  Free identifiers of each resulting abstraction refer to
    globals; look them up by name in [c_global_ids]. *)
val lower_program : mode:mode -> Typecheck.tprogram -> compiled

(** {1 Incremental lowering} (the interactive environment's path)

    A persistent lowering environment keeps the global-identifier table
    across batches, so that definitions lowered later refer to the same
    identifiers. *)

type env

val env_create : mode:mode -> env

(** [lower_defs env tdefs] lowers a batch of definitions. *)
val lower_defs : env -> Typecheck.tdef list -> compiled_def list

(** [lower_main env texpr] lowers an expression to a nullary
    [proc(ce cc)]. *)
val lower_main : env -> Typecheck.texpr -> Term.value
