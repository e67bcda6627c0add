(** The fuzz-campaign driver shared by the [tmlfuzz] CLI, the [@fuzz] dune
    alias and the corpus replay tests.

    A campaign runs seed after seed through one or more {e oracles}
    (differential execution, query differential, PTML round trip, durable
    store reopen), counts agreements, skips and failures, and {e minimizes}
    every failure with {!Tgen.minimize} before reporting it, so a long
    campaign ends with a handful of small reproducers instead of a pile of
    50-node terms.  Failing cases serialize to a line-oriented corpus
    format that the deterministic regression suite replays. *)

type oracle =
  | Diff    (** tree vs machine vs optimized vs reflective, full programs *)
  | Query   (** the same battery over query pipelines and a generated relation *)
  | Ptml    (** PTML encode/decode round trip of the generated program *)
  | Store   (** run on a durable heap, commit, reopen, refault, compare *)
  | Purity
      (** inferred effect signature vs observed behaviour
          ({!Oracle.check_purity}): read-only may not mutate or print,
          fault-free may not fault, terminating may not exhaust fuel *)

val oracle_name : oracle -> string
val oracle_of_name : string -> oracle option
val all_oracles : oracle list

(** A failure, after minimization.  [entry] is the corpus serialization of
    the minimized case; [detail] is a human-readable diagnosis. *)
type failure = {
  f_oracle : oracle;
  f_seed : int;
  f_entry : string;
  f_detail : string;
}

type stats = {
  mutable executed : int;  (** cases run (per oracle per seed) *)
  mutable agreed : int;
  mutable skipped : int;   (** legitimately outside an oracle's domain *)
  mutable failed : int;
}

val run_seed :
  validate:bool ->
  ?min_size:int ->
  ?max_size:int ->
  oracle ->
  int ->
  [ `Agree | `Skip of string | `Fail of failure ]

(** [run_campaign ~oracles ~validate ~first_seed ~count ()] — the driver.
    [progress] is called after every seed with the number of seeds done. *)
val run_campaign :
  ?progress:(int -> unit) ->
  ?min_size:int ->
  ?max_size:int ->
  oracles:oracle list ->
  validate:bool ->
  first_seed:int ->
  count:int ->
  unit ->
  stats * failure list

(** [stats_json stats failures] — a compact JSON object (campaign totals
    plus one entry per minimized failure). *)
val stats_json : stats -> failure list -> string

(** {1 Corpus serialization}

    A corpus entry is a text file: [; key: value] header lines followed by
    the S-expression of the generated procedure. *)

type corpus_case =
  | Cdiff of Tgen.case
  | Cquery of Tgen.query_case

(** @raise Failure on malformed input *)
val entry_of_string : string -> oracle * corpus_case

val load_entry : string -> oracle * corpus_case

(** [replay ~validate oracle case] — run one corpus entry through its
    oracle, returning a diagnosis on failure. *)
val replay : validate:bool -> oracle -> corpus_case -> (unit, string) result
