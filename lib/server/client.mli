(** A blocking tmld client: one socket, one session, strict
    request/response alternation ([tmlsh :connect], the server tests and
    the benchmark spine drive the server through this). *)

exception Client_error of string
(** connection refused, protocol violation, or a server [Error]/[Busy]
    reply where the call promises a payload *)

type t

val connect : ?client:string -> ?trace:bool -> Wire.addr -> t
(** dial, shake hands, return the connected session.  [trace] (default
    [true]) injects a {!Wire.trace_ctx} trailer into every request so
    the server can stitch its spans to this client; pass [false] to
    emulate a pre-tracing client.
    @raise Client_error if refused (including a [Busy] shed) *)

val last_trace_id : t -> int
(** trace id injected into the most recent request ([0] before the
    first, or when [~trace:false]) — join point for the server's
    slow-query log and spans *)

val session_id : t -> int

val epoch : t -> int
(** the session's pinned epoch as of the last handshake, commit or
    conflict (a conflict loser reopens at the current epoch) *)

val close : t -> unit
(** send [Bye], wait for the ack, close the socket; idempotent *)

(** {1 Calls}

    Each sends one request and blocks for its reply. *)

val eval : t -> string -> (string, string) result
(** [Ok rendered_output] — or [Error msg] for TL errors, server-side
    faults and [Busy] sheds (prefixed ["busy: "]) *)

type commit_outcome =
  | Committed of { epoch : int; objects : int; group : int }
  | Conflicted of { oid : int }

val commit : t -> (commit_outcome, string) result
(** on [Committed], {!epoch} advances to the new epoch; on [Conflicted],
    to the epoch the aborted session reopened at *)

val stats : t -> string
(** the server's stats JSON. @raise Client_error *)

val explain : t -> string -> (string, string) result
val fetch_ptml : t -> string -> (string, string) result
val pull_object : t -> int -> (string, string) result

val slowlog : ?json:bool -> t -> string
(** the server's slow-query log, rendered as text (default) or JSON.
    @raise Client_error *)

val stats_prom : t -> string
(** Prometheus text exposition of the server's metrics registry.
    @raise Client_error *)

val roundtrip : t -> Wire.req -> Wire.resp
(** escape hatch: one raw exchange. @raise Client_error on EOF *)
