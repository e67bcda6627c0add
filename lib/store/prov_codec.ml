(* Binary codec for optimization derivation logs (Tml_obs.Provenance.t).

   Layout: magic "PRV1", varint entry count, then per entry the rule,
   site and fact strings (length-prefixed) and the zigzag-encoded
   size/cost deltas.  Logs are persisted in the durable image as plain
   [Bytes] heap objects referenced from a function's ["provenance"]
   attribute, so the object codec itself is untouched and images
   without provenance remain byte-identical. *)

exception Corrupt of string

let magic = "PRV1"

let encode (t : Tml_obs.Provenance.t) =
  let w = Codec.W.create () in
  Codec.W.raw w magic;
  Codec.W.varint w (List.length t);
  List.iter
    (fun (e : Tml_obs.Provenance.entry) ->
      Codec.W.str w e.pv_rule;
      Codec.W.str w e.pv_site;
      Codec.W.str w e.pv_fact;
      Codec.W.svarint w e.pv_size_delta;
      Codec.W.svarint w e.pv_cost_delta)
    t;
  Codec.W.contents w

let decode s : Tml_obs.Provenance.t =
  let r = Codec.R.of_string s in
  let m = try Codec.R.raw r 4 with Codec.R.Truncated -> raise (Corrupt "truncated magic") in
  if m <> magic then raise (Corrupt (Printf.sprintf "bad magic %S" m));
  try
    let n = Codec.R.varint r in
    if n < 0 || n > 1_000_000 then raise (Corrupt (Printf.sprintf "absurd entry count %d" n));
    let t =
      List.init n (fun _ ->
          let pv_rule = Codec.R.str r in
          let pv_site = Codec.R.str r in
          let pv_fact = Codec.R.str r in
          let pv_size_delta = Codec.R.svarint r in
          let pv_cost_delta = Codec.R.svarint r in
          { Tml_obs.Provenance.pv_rule; pv_site; pv_fact; pv_size_delta; pv_cost_delta })
    in
    if not (Codec.R.at_end r) then raise (Corrupt "trailing bytes");
    t
  with
  | Codec.R.Truncated -> raise (Corrupt "truncated")
  | Codec.R.Malformed m -> raise (Corrupt m)
