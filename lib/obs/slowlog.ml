(* Bounded, durable ring of slow requests.

   tml_obs has no library dependencies, so the wire format is
   self-contained here rather than borrowing Tml_store.Codec: LEB128
   varints and length-prefixed strings inside a magic-tagged payload.
   The whole ring rewrites atomically on save; slow queries are rare by
   definition, so rewriting the file per entry is cheap and keeps the
   on-disk state consistent without a recovery protocol. *)

type entry = {
  sl_trace : int;
  sl_kind : string;
  sl_source : string;
  sl_duration_s : float;
  sl_steps : int;
  sl_tier : string;
  sl_page_faults : int;
  sl_index_probes : int;
  sl_rules : string list;
  sl_facts : string list;
}

type t = {
  ring : entry Queue.t;
  r_limit : int;
  mutable r_dropped : int;
  lock : Mutex.t;
}

let create ?(limit = 128) () =
  { ring = Queue.create (); r_limit = max 1 limit; r_dropped = 0;
    lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t e =
  locked t (fun () ->
      if Queue.length t.ring >= t.r_limit then begin
        ignore (Queue.pop t.ring);
        t.r_dropped <- t.r_dropped + 1
      end;
      Queue.push e t.ring)

let entries t = locked t (fun () -> List.of_seq (Queue.to_seq t.ring))
let length t = locked t (fun () -> Queue.length t.ring)
let limit t = t.r_limit
let dropped t = locked t (fun () -> t.r_dropped)
let clear t = locked t (fun () -> Queue.clear t.ring; t.r_dropped <- 0)

(* --- codec ------------------------------------------------------- *)

exception Corrupt of string

let magic = "SLG1"

let put_varint b n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let put_str b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_float b f = put_str b (Printf.sprintf "%h" f)
let put_list b l = put_varint b (List.length l); List.iter (put_str b) l

type reader = { src : string; mutable pos : int }

let get_byte r =
  if r.pos >= String.length r.src then raise (Corrupt "truncated");
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let byte = get_byte r in
    if !shift > 56 then raise (Corrupt "varint overflow");
    n := !n lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  !n

let get_str r =
  let len = get_varint r in
  if r.pos + len > String.length r.src then raise (Corrupt "truncated string");
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let get_float r =
  let s = get_str r in
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Corrupt "bad float")

let get_list r =
  let n = get_varint r in
  if n > 1_000_000 then raise (Corrupt "oversized list");
  List.init n (fun _ -> get_str r)

let put_entry b e =
  put_varint b e.sl_trace;
  put_str b e.sl_kind;
  put_str b e.sl_source;
  put_float b e.sl_duration_s;
  put_varint b e.sl_steps;
  put_str b e.sl_tier;
  put_varint b e.sl_page_faults;
  put_varint b e.sl_index_probes;
  put_list b e.sl_rules;
  put_list b e.sl_facts

let get_entry r =
  let sl_trace = get_varint r in
  let sl_kind = get_str r in
  let sl_source = get_str r in
  let sl_duration_s = get_float r in
  let sl_steps = get_varint r in
  let sl_tier = get_str r in
  let sl_page_faults = get_varint r in
  let sl_index_probes = get_varint r in
  let sl_rules = get_list r in
  let sl_facts = get_list r in
  { sl_trace; sl_kind; sl_source; sl_duration_s; sl_steps; sl_tier;
    sl_page_faults; sl_index_probes; sl_rules; sl_facts }

let encode t =
  locked t (fun () ->
      let b = Buffer.create 512 in
      Buffer.add_string b magic;
      put_varint b t.r_dropped;
      put_varint b (Queue.length t.ring);
      Queue.iter (put_entry b) t.ring;
      Buffer.contents b)

let decode ?limit payload =
  if String.length payload < 4 || String.sub payload 0 4 <> magic then
    raise (Corrupt "bad magic");
  let r = { src = payload; pos = 4 } in
  let dropped = get_varint r in
  let n = get_varint r in
  if n > 1_000_000 then raise (Corrupt "oversized ring");
  let t = create ?limit () in
  for _ = 1 to n do add t (get_entry r) done;
  t.r_dropped <- t.r_dropped + dropped;
  t

(* --- persistence ------------------------------------------------- *)

let save t path =
  let payload = encode t in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc payload;
  close_out oc;
  Sys.rename tmp path

let load ?limit path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | payload -> ( try decode ?limit payload with Corrupt _ -> create ?limit ())
  | exception Sys_error _ -> create ?limit ()
  | exception End_of_file -> create ?limit ()

(* --- rendering --------------------------------------------------- *)

let json_list l = "[" ^ String.concat "," (List.map Json.quote l) ^ "]"

let entry_to_json e =
  Printf.sprintf
    "{\"trace\":%d,\"kind\":%s,\"source\":%s,\"duration_ms\":%.3f,\
     \"steps\":%d,\"tier\":%s,\"page_faults\":%d,\"index_probes\":%d,\
     \"rules\":%s,\"facts\":%s}"
    e.sl_trace (Json.quote e.sl_kind) (Json.quote e.sl_source)
    (e.sl_duration_s *. 1e3) e.sl_steps (Json.quote e.sl_tier)
    e.sl_page_faults e.sl_index_probes (json_list e.sl_rules)
    (json_list e.sl_facts)

let to_json t =
  let es = entries t in
  Printf.sprintf "{\"limit\":%d,\"dropped\":%d,\"entries\":[%s]}" t.r_limit
    (dropped t)
    (String.concat "," (List.map entry_to_json es))

let pp fmt t =
  let es = List.rev (entries t) in
  if es = [] then Format.fprintf fmt "slow-query log: empty@."
  else begin
    Format.fprintf fmt "slow-query log (%d of %d, %d dropped), newest first:@."
      (List.length es) t.r_limit (dropped t);
    List.iter
      (fun e ->
        let src =
          if String.length e.sl_source > 48 then
            String.sub e.sl_source 0 45 ^ "..."
          else e.sl_source
        in
        Format.fprintf fmt
          "  %8.3f ms  %-4s trace=%-6d steps=%-8d tier=%-7s faults=%d \
           probes=%d  %s@."
          (e.sl_duration_s *. 1e3) e.sl_kind e.sl_trace e.sl_steps e.sl_tier
          e.sl_page_faults e.sl_index_probes src;
        if e.sl_rules <> [] then
          Format.fprintf fmt "             rules: %s@."
            (String.concat ", " e.sl_rules);
        if e.sl_facts <> [] then
          Format.fprintf fmt "             facts: %s@."
            (String.concat "; " e.sl_facts))
      es
  end
