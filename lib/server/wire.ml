module Codec = Tml_store.Codec
module Crc32 = Tml_store.Crc32

exception Wire_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Wire_error s)) fmt
let protocol_version = 1
let default_max_frame = 64 * 1024 * 1024

(* --- frame transport ----------------------------------------------- *)

let u32le_to_string v =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (v land 0xff);
  Bytes.set_uint8 b 1 ((v lsr 8) land 0xff);
  Bytes.set_uint8 b 2 ((v lsr 16) land 0xff);
  Bytes.set_uint8 b 3 ((v lsr 24) land 0xff);
  Bytes.unsafe_to_string b

let u32le_of_string s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd b !off (len - !off) in
    if n = 0 then fail "short write";
    off := !off + n
  done

(* [exact] reads [len] bytes or reports how the stream ended:
   [`Eof] only when not a single byte arrived (a clean boundary). *)
let read_exact fd len =
  let b = Bytes.create len in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < len do
    let n = Unix.read fd b !off (len - !off) in
    if n = 0 then eof := true else off := !off + n
  done;
  if !off = len then `Ok (Bytes.unsafe_to_string b)
  else if !off = 0 then `Eof
  else `Torn

let read_frame ?(max_bytes = default_max_frame) fd =
  match read_exact fd 4 with
  | `Eof -> None
  | `Torn -> fail "truncated frame header"
  | `Ok hdr ->
    let len = u32le_of_string hdr 0 in
    if len < 0 || len > max_bytes then fail "oversized frame (%d bytes)" len;
    let payload =
      match read_exact fd len with
      | `Ok s -> s
      | `Eof | `Torn -> fail "truncated frame payload"
    in
    let crc =
      match read_exact fd 4 with
      | `Ok s -> u32le_of_string s 0
      | `Eof | `Torn -> fail "truncated frame checksum"
    in
    if Crc32.string payload <> crc then fail "frame checksum mismatch";
    Some payload

let write_frame fd payload =
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_string buf (u32le_to_string (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_string buf (u32le_to_string (Crc32.string payload));
  write_all fd (Buffer.contents buf)

(* --- message codec ------------------------------------------------- *)

type req =
  | Hello of { version : int; client : string }
  | Eval of string
  | Commit
  | Stat
  | Explain of string
  | Fetch of string
  | Pull of int
  | Slowlog of { json : bool }
  | Prom
  | Bye

(* Trace context rides as an optional trailer after the request body:
   a 'T' tag byte plus two varints.  Old clients simply end the payload
   after the body ([R.at_end] is true), and an unrecognized trailer tag
   from some future client is skipped rather than rejected — both
   directions stay version-tolerant. *)
type trace_ctx = { tc_id : int; tc_span : int }

let trace_trailer_tag = 0x54 (* 'T' *)

type resp =
  | Hello_ok of { session : int; epoch : int; server : string }
  | Result of string
  | Committed of { epoch : int; objects : int; group : int }
  | Conflict of { oid : int; epoch : int option }
  | Busy of string
  | Error of string
  | Stats of string
  | Payload of { kind : int; data : string }
  | Bye_ok

let encode f =
  let w = Codec.W.create () in
  f w;
  Codec.W.contents w

let encode_req ?trace req =
  encode (fun w ->
      (match req with
      | Hello { version; client } ->
        Codec.W.u8 w 0x01;
        Codec.W.varint w version;
        Codec.W.str w client
      | Eval src ->
        Codec.W.u8 w 0x02;
        Codec.W.str w src
      | Commit -> Codec.W.u8 w 0x03
      | Stat -> Codec.W.u8 w 0x04
      | Explain name ->
        Codec.W.u8 w 0x05;
        Codec.W.str w name
      | Fetch name ->
        Codec.W.u8 w 0x06;
        Codec.W.str w name
      | Pull oid ->
        Codec.W.u8 w 0x07;
        Codec.W.varint w oid
      | Slowlog { json } ->
        Codec.W.u8 w 0x09;
        Codec.W.u8 w (if json then 1 else 0)
      | Prom -> Codec.W.u8 w 0x0a
      | Bye -> Codec.W.u8 w 0x08);
      match trace with
      | None -> ()
      | Some { tc_id; tc_span } ->
        Codec.W.u8 w trace_trailer_tag;
        Codec.W.varint w tc_id;
        Codec.W.varint w tc_span)

let encode_resp resp =
  encode (fun w ->
      match resp with
      | Hello_ok { session; epoch; server } ->
        Codec.W.u8 w 0x81;
        Codec.W.varint w session;
        Codec.W.varint w epoch;
        Codec.W.str w server
      | Result s ->
        Codec.W.u8 w 0x82;
        Codec.W.str w s
      | Committed { epoch; objects; group } ->
        Codec.W.u8 w 0x83;
        Codec.W.varint w epoch;
        Codec.W.varint w objects;
        Codec.W.varint w group
      | Conflict { oid; epoch } ->
        Codec.W.u8 w 0x84;
        Codec.W.varint w oid;
        Option.iter (Codec.W.varint w) epoch
      | Busy msg ->
        Codec.W.u8 w 0x85;
        Codec.W.str w msg
      | Error msg ->
        Codec.W.u8 w 0x86;
        Codec.W.str w msg
      | Stats json ->
        Codec.W.u8 w 0x87;
        Codec.W.str w json
      | Payload { kind; data } ->
        Codec.W.u8 w 0x88;
        Codec.W.u8 w kind;
        Codec.W.str w data
      | Bye_ok -> Codec.W.u8 w 0x89)

let decode what payload f =
  let r = Codec.R.of_string payload in
  match f r with
  | v -> v
  | exception Codec.R.Truncated -> fail "truncated %s" what
  | exception Codec.R.Malformed msg -> fail "malformed %s: %s" what msg

let decode_req payload =
  decode "request" payload (fun r ->
      let req =
        match Codec.R.u8 r with
        | 0x01 ->
          let version = Codec.R.varint r in
          let client = Codec.R.str r in
          Hello { version; client }
        | 0x02 -> Eval (Codec.R.str r)
        | 0x03 -> Commit
        | 0x04 -> Stat
        | 0x05 -> Explain (Codec.R.str r)
        | 0x06 -> Fetch (Codec.R.str r)
        | 0x07 -> Pull (Codec.R.varint r)
        | 0x08 -> Bye
        | 0x09 -> Slowlog { json = Codec.R.u8 r <> 0 }
        | 0x0a -> Prom
        | tag -> fail "unknown request tag 0x%02x" tag
      in
      let trace =
        if Codec.R.at_end r then None
        else if Codec.R.u8 r = trace_trailer_tag then begin
          let tc_id = Codec.R.varint r in
          let tc_span = Codec.R.varint r in
          Some { tc_id; tc_span }
        end
        else None (* unknown trailer: tolerate and ignore *)
      in
      (req, trace))

let decode_resp payload =
  decode "response" payload (fun r ->
      match Codec.R.u8 r with
      | 0x81 ->
        let session = Codec.R.varint r in
        let epoch = Codec.R.varint r in
        let server = Codec.R.str r in
        Hello_ok { session; epoch; server }
      | 0x82 -> Result (Codec.R.str r)
      | 0x83 ->
        let epoch = Codec.R.varint r in
        let objects = Codec.R.varint r in
        let group = Codec.R.varint r in
        Committed { epoch; objects; group }
      | 0x84 ->
        let oid = Codec.R.varint r in
        let epoch = if Codec.R.at_end r then None else Some (Codec.R.varint r) in
        Conflict { oid; epoch }
      | 0x85 -> Busy (Codec.R.str r)
      | 0x86 -> Error (Codec.R.str r)
      | 0x87 -> Stats (Codec.R.str r)
      | 0x88 ->
        let kind = Codec.R.u8 r in
        let data = Codec.R.str r in
        Payload { kind; data }
      | 0x89 -> Bye_ok
      | tag -> fail "unknown response tag 0x%02x" tag)

(* --- addresses ----------------------------------------------------- *)

type addr = Unix_path of string | Tcp of string * int

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> Unix_path s
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Tcp (host, p)
    | _ -> Unix_path s)

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of_addr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host with
      | Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> fail "cannot resolve host %S" host)
    in
    Unix.ADDR_INET (ip, port)
