exception Client_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Client_error s)) fmt

type t = {
  fd : Unix.file_descr;
  mutable session : int;
  mutable epoch : int;
  mutable closed : bool;
  trace : bool;
  mutable last_trace : int;
}

let session_id t = t.session
let epoch t = t.epoch
let last_trace_id t = t.last_trace

(* Request trace ids: unique within a machine for the lifetime of a
   trace — pid in the high bits, a process-wide sequence below. *)
let trace_base = (Unix.getpid () land 0x3ff) lsl 20
let trace_seq = ref 0

let next_trace t =
  incr trace_seq;
  let tc = { Wire.tc_id = trace_base lor (!trace_seq land 0xfffff);
             tc_span = max 0 t.session } in
  t.last_trace <- tc.Wire.tc_id;
  tc

let roundtrip t req =
  if t.closed then fail "client is closed";
  let trace = if t.trace then Some (next_trace t) else None in
  let exchange () =
    Wire.write_frame t.fd (Wire.encode_req ?trace req);
    match Wire.read_frame t.fd with
    | Some payload -> Wire.decode_resp payload
    | None -> fail "server closed the connection"
  in
  match trace with
  | Some tc when !Tml_obs.Trace.enabled ->
    Tml_obs.Trace.with_span ~cat:"client"
      ~args:[ ("trace", Tml_obs.Trace.Int tc.Wire.tc_id) ]
      "client.request" exchange
  | _ -> exchange ()

let connect ?(client = "tml-client") ?(trace = true) addr =
  let sockaddr = Wire.sockaddr_of_addr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr with
  | Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    fail "cannot connect to %s: %s" (Wire.addr_to_string addr) (Unix.error_message e));
  let t = { fd; session = -1; epoch = -1; closed = false; trace; last_trace = 0 } in
  match
    try roundtrip t (Wire.Hello { version = Wire.protocol_version; client }) with
    | e ->
      Unix.close fd;
      raise e
  with
  | Wire.Hello_ok { session; epoch; server = _ } ->
    t.session <- session;
    t.epoch <- epoch;
    t
  | Wire.Busy msg ->
    Unix.close fd;
    fail "server busy: %s" msg
  | Wire.Error msg ->
    Unix.close fd;
    fail "handshake refused: %s" msg
  | _ ->
    Unix.close fd;
    fail "unexpected handshake reply"

let close t =
  if not t.closed then begin
    (try ignore (roundtrip t Wire.Bye) with
    | Client_error _ | Wire.Wire_error _ | Unix.Unix_error _ -> ());
    t.closed <- true;
    try Unix.close t.fd with
    | Unix.Unix_error _ -> ()
  end

let eval t src =
  match roundtrip t (Wire.Eval src) with
  | Wire.Result out -> Ok out
  | Wire.Busy msg -> Error ("busy: " ^ msg)
  | Wire.Error msg -> Error msg
  | _ -> fail "unexpected reply to eval"

type commit_outcome =
  | Committed of { epoch : int; objects : int; group : int }
  | Conflicted of { oid : int }

let commit t =
  match roundtrip t Wire.Commit with
  | Wire.Committed { epoch; objects; group } ->
    t.epoch <- epoch;
    Ok (Committed { epoch; objects; group })
  | Wire.Conflict { oid; epoch } ->
    Option.iter (fun e -> t.epoch <- e) epoch;
    Ok (Conflicted { oid })
  | Wire.Busy msg -> Error ("busy: " ^ msg)
  | Wire.Error msg -> Error msg
  | _ -> fail "unexpected reply to commit"

let stats t =
  match roundtrip t Wire.Stat with
  | Wire.Stats json -> json
  | Wire.Error msg -> fail "stat failed: %s" msg
  | _ -> fail "unexpected reply to stat"

let expect_result = function
  | Wire.Result out -> Ok out
  | Wire.Error msg -> Error msg
  | Wire.Busy msg -> Error ("busy: " ^ msg)
  | _ -> Error "unexpected reply"

let explain t name = expect_result (roundtrip t (Wire.Explain name))

let expect_payload = function
  | Wire.Payload { data; _ } -> Ok data
  | Wire.Error msg -> Error msg
  | Wire.Busy msg -> Error ("busy: " ^ msg)
  | _ -> Error "unexpected reply"

let fetch_ptml t name = expect_payload (roundtrip t (Wire.Fetch name))
let pull_object t oid = expect_payload (roundtrip t (Wire.Pull oid))

let slowlog ?(json = false) t =
  match roundtrip t (Wire.Slowlog { json }) with
  | Wire.Stats s -> s
  | Wire.Error msg -> fail "slowlog failed: %s" msg
  | _ -> fail "unexpected reply to slowlog"

let stats_prom t =
  match roundtrip t Wire.Prom with
  | Wire.Stats s -> s
  | Wire.Error msg -> fail "prom failed: %s" msg
  | _ -> fail "unexpected reply to prom"
