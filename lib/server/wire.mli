(** The tmld wire protocol: length-prefixed, CRC-checked binary frames
    over a stream socket (Unix-domain or TCP), carrying requests and
    replies at the TML level — TL source for evaluation, PTML and
    [Obj_codec] payloads for code and object shipping (docs/SERVER.md).

    Framing:
    {v
      u32le payload-length | payload | u32le crc32(payload)
    v}

    The payload is a one-byte tag followed by [Tml_store.Codec]-encoded
    operands.  The CRC reuses the store's {!Tml_store.Crc32} — the same
    path that seals WAL records guards frames in flight. *)

exception Wire_error of string
(** malformed, oversized or checksum-corrupt frame *)

(** {1 Messages} *)

type req =
  | Hello of { version : int; client : string }
  | Eval of string  (** TL source, or a [:optimize NAME] directive *)
  | Commit  (** seal this session's staged objects (group-committed) *)
  | Stat  (** metrics-registry snapshot plus session facts *)
  | Explain of string  (** persistent derivation log of a function *)
  | Fetch of string  (** the PTML of a linked function, by name *)
  | Pull of int  (** the [Obj_codec] payload of an OID at this session's epoch *)
  | Slowlog of { json : bool }  (** the server's slow-query log, text or JSON *)
  | Prom  (** Prometheus text exposition of the metrics registry *)
  | Bye

(** Distributed trace context, propagated client → server as an
    optional trailer after the request body ([tc_id] names the request
    trace, [tc_span] the client-side parent span).  Old clients that
    never heard of it encode nothing and decode as [None]; unknown
    future trailer tags are skipped, not rejected. *)
type trace_ctx = { tc_id : int; tc_span : int }

type resp =
  | Hello_ok of { session : int; epoch : int; server : string }
  | Result of string  (** rendered evaluation output *)
  | Committed of { epoch : int; objects : int; group : int }
      (** [group] = how many sessions' commits shared the seal/fsync *)
  | Conflict of { oid : int; epoch : int option }
      (** first-committer-wins: [oid] was committed past this session's
          pinned epoch; nothing of the batch was applied, and the session
          now reads [epoch].  [None] decodes a frame from an older server,
          which ends after the OID. *)
  | Busy of string  (** admission control / load shed; try again later *)
  | Error of string
  | Stats of string  (** JSON *)
  | Payload of { kind : int; data : string }
      (** [kind] 0 = PTML, 1 = [Obj_codec] object record *)
  | Bye_ok

val protocol_version : int

(** {1 Frame transport}

    Read/write one whole frame; writes are atomic with respect to other
    frames only if callers serialize per connection (the server's
    per-session handler and the client are both single-threaded). *)

val read_frame : ?max_bytes:int -> Unix.file_descr -> string option
(** [None] on a clean EOF at a frame boundary.
    @raise Wire_error on oversize, truncation or CRC mismatch *)

val write_frame : Unix.file_descr -> string -> unit

val default_max_frame : int

(** {1 Message codec} *)

val encode_req : ?trace:trace_ctx -> req -> string
val encode_resp : resp -> string

val decode_req : string -> req * trace_ctx option
(** @raise Wire_error on an unknown tag or malformed operands *)

val decode_resp : string -> resp
(** @raise Wire_error on an unknown tag or malformed operands *)

(** {1 Addresses} *)

type addr =
  | Unix_path of string  (** a Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

val parse_addr : string -> addr
(** ["HOST:PORT"] when the suffix after the last [':'] parses as a port
    number, otherwise a Unix-domain socket path *)

val addr_to_string : addr -> string
val sockaddr_of_addr : addr -> Unix.sockaddr
