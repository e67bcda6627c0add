exception Store_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Store_error s)) fmt

let magic = "TMLLOG1\n"

(* The directory is multi-version: each OID maps to its version chain,
   newest first, each version tagged with the sequence number of the
   commit that sealed it.  Old versions are kept only while a snapshot
   pinned at an epoch that can still see them exists; with no pins the
   chain is always a single entry.

   The journal lists, newest first, the OIDs each commit sealed while
   an older pin existed.  Only journaled OIDs can have more than one
   version, so it is both the pinned readers' invalidation feed
   ([written_after]) and the set of chains a release may shorten. *)
type entry = {
  e_off : int;  (* absolute file offset of the payload bytes *)
  e_len : int;
  e_seq : int;  (* sequence number of the sealing commit *)
}

type snapshot = {
  sn_seq : int;  (* the pinned epoch: the last sealed commit visible *)
  sn_root : int option;
  sn_max_oid : int;  (* highest sealed OID visible at the epoch *)
  mutable sn_active : bool;
}

type t = {
  ls_path : string;
  mutable fd : Unix.file_descr;
  dir : (int, entry list) Hashtbl.t;
  mutable tail : int;  (* end of the last sealed transaction = append point *)
  mutable seq : int;  (* sequence number of the last sealed transaction *)
  mutable sroot : int option;
  fsync : bool;
  mutable closed : bool;
  mutable pins : snapshot list;  (* active snapshots *)
  mutable journal : (int * int list) list;
      (* (seq, OIDs sealed), newest first: every commit newer than the
         oldest pin, and only those *)
  mutable sealed_max : int;  (* highest sealed OID; -1 when empty *)
  lock : Mutex.t;  (* guards the directory, the file cursor, the pins and the journal *)
  stats : Store_stats.t;
}

(* Every public operation holds the store lock for its whole duration:
   concurrent readers (snapshot faults share one file descriptor whose
   cursor lseek/read must not interleave) and the single committer are
   serialized here.  The lock is never held across calls back into user
   code. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let path t = t.ls_path
let stats t = t.stats
let root t = locked t (fun () -> t.sroot)
let seq t = locked t (fun () -> t.seq)
let file_bytes t = locked t (fun () -> t.tail)
let object_count t = locked t (fun () -> Hashtbl.length t.dir)
let check_open t = if t.closed then fail "store %s is closed" t.ls_path

let head_entry t oid =
  match Hashtbl.find_opt t.dir oid with
  | Some (e :: _) -> Some e
  | _ -> None

let max_oid t = locked t (fun () -> t.sealed_max)

let live_bytes_u t =
  Hashtbl.fold
    (fun _ es acc -> match es with e :: _ -> acc + e.e_len | [] -> acc)
    t.dir 0

let live_bytes t = locked t (fun () -> live_bytes_u t)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let snapshot_seq sn = sn.sn_seq
let snapshot_root sn = sn.sn_root
let snapshot_max_oid sn = sn.sn_max_oid

let min_pin_u t =
  List.fold_left
    (fun acc sn -> match acc with None -> Some sn.sn_seq | Some m -> Some (min m sn.sn_seq))
    None t.pins

(* Keep every version a pinned epoch can still observe: all versions newer
   than the oldest pin, plus the newest version at or below it (the one
   that pin resolves to).  With no pins, just the head. *)
let prune_chain min_pin es =
  match min_pin with
  | None -> ( match es with e :: _ -> [ e ] | [] -> [])
  | Some m ->
    let rec keep = function
      | [] -> []
      | e :: rest -> if e.e_seq <= m then [ e ] else e :: keep rest
    in
    keep es

let pin t =
  locked t (fun () ->
      check_open t;
      let sn =
        { sn_seq = t.seq; sn_root = t.sroot; sn_max_oid = t.sealed_max; sn_active = true }
      in
      t.pins <- sn :: t.pins;
      sn)

(* Once the oldest pin moves to [m] (or no pin is left), the journal
   entries at or below [m] expire, and only their chains can hold a
   version no pin sees any more. *)
let release t sn =
  locked t (fun () ->
      if sn.sn_active then begin
        sn.sn_active <- false;
        let before = min_pin_u t in
        t.pins <- List.filter (fun s -> s != sn) t.pins;
        let m = min_pin_u t in
        if m <> before then begin
          let expired, kept =
            List.partition
              (fun (s, _) -> match m with None -> true | Some m -> s <= m)
              t.journal
          in
          t.journal <- kept;
          List.iter
            (fun (_, oids) ->
              List.iter
                (fun oid ->
                  match Hashtbl.find_opt t.dir oid with
                  | Some es -> Hashtbl.replace t.dir oid (prune_chain m es)
                  | None -> ())
                oids)
            expired
        end
      end)

let written_after t sn =
  locked t (fun () ->
      if not sn.sn_active then fail "snapshot (epoch %d) released" sn.sn_seq;
      List.sort_uniq compare
        (List.concat_map
           (fun (s, oids) -> if s > sn.sn_seq then oids else [])
           t.journal))

let version_count t =
  locked t (fun () -> Hashtbl.fold (fun _ es acc -> acc + List.length es) t.dir 0)

(* ------------------------------------------------------------------ *)
(* Low-level file I/O                                                   *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then go (pos + Unix.write_substring fd s pos (len - pos))
  in
  go 0

let read_exactly fd off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let n = Unix.read fd b pos (len - pos) in
      if n = 0 then fail "unexpected end of store file";
      go (pos + n)
    end
  in
  go 0;
  Bytes.unsafe_to_string b

let read_whole fd =
  let len = (Unix.fstat fd).Unix.st_size in
  read_exactly fd 0 len

(* ------------------------------------------------------------------ *)
(* Record encoding                                                      *)
(*                                                                      *)
(* put:    0x01  varint oid  varint len  payload  crc32(le, 4 bytes)    *)
(* commit: 0x02  varint seq  varint count  varint root+1|0  crc32       *)
(*                                                                      *)
(* Each CRC covers every byte of its record before the CRC field.  A    *)
(* commit record seals the transaction formed by the puts since the     *)
(* previous seal; recovery discards any tail not ending in a valid      *)
(* seal.                                                                *)
(* ------------------------------------------------------------------ *)

let add_crc32_le buf crc =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * i)) land 0xff))
  done

(* Appends the record for [oid -> payload] to [buf]; returns the offset
   of the payload within [buf]. *)
let encode_put buf oid payload =
  let w = Codec.W.create ~initial:(String.length payload + 16) () in
  Codec.W.u8 w 1;
  Codec.W.varint w oid;
  Codec.W.str w payload;
  let s = Codec.W.contents w in
  let payload_off = Buffer.length buf + (String.length s - String.length payload) in
  Buffer.add_string buf s;
  add_crc32_le buf (Crc32.string s);
  payload_off

let encode_commit buf ~seq ~count ~root =
  let w = Codec.W.create ~initial:16 () in
  Codec.W.u8 w 2;
  Codec.W.varint w seq;
  Codec.W.varint w count;
  Codec.W.varint w (match root with None -> 0 | Some r -> r + 1);
  let s = Codec.W.contents w in
  Buffer.add_string buf s;
  add_crc32_le buf (Crc32.string s)

(* ------------------------------------------------------------------ *)
(* Recovery                                                             *)
(* ------------------------------------------------------------------ *)

exception Torn

let check_crc data start stop r =
  (* [start, stop) is the checksummed span; the 4 CRC bytes follow *)
  if stop + 4 > String.length data then raise Torn;
  let stored = ref 0 in
  for i = 3 downto 0 do
    stored := (!stored lsl 8) lor Char.code data.[stop + i]
  done;
  if Crc32.update 0 data start (stop - start) <> !stored then raise Torn;
  Codec.R.seek r (stop + 4)

(* Scans [data]; returns the directory, the sealed end offset, the last
   sequence number and the root.  Raises [Store_error] on a corrupt
   header; a torn or corrupt tail is cut, never fatal. *)
let recover data =
  if String.length data < String.length magic || not (String.sub data 0 8 = magic) then
    fail "not a TML store file (bad magic)";
  let dir = Hashtbl.create 256 in
  let r = Codec.R.of_string data in
  Codec.R.seek r (String.length magic);
  let sealed = ref (String.length magic) in
  let seq = ref 0 in
  let root = ref None in
  let pending = ref [] in
  (try
     while not (Codec.R.at_end r) do
       let start = Codec.R.pos r in
       match Codec.R.u8 r with
       | 1 ->
         let oid = Codec.R.varint r in
         let len = Codec.R.varint r in
         let off = Codec.R.pos r in
         if len > String.length data - off then raise Torn;
         Codec.R.seek r (off + len);
         check_crc data start (off + len) r;
         pending := (oid, off, len) :: !pending
       | 2 ->
         let s = Codec.R.varint r in
         let count = Codec.R.varint r in
         let root_field = Codec.R.varint r in
         check_crc data start (Codec.R.pos r) r;
         if count <> List.length !pending then raise Torn;
         List.iter
           (fun (oid, off, len) ->
             Hashtbl.replace dir oid [ { e_off = off; e_len = len; e_seq = s } ])
           (List.rev !pending);
         pending := [];
         sealed := Codec.R.pos r;
         seq := s;
         root := if root_field = 0 then None else Some (root_field - 1)
       | _ -> raise Torn
     done
   with
  | Torn | Codec.R.Truncated | Codec.R.Malformed _ -> ());
  dir, !sealed, !seq, !root

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let make ~path ~fd ~dir ~tail ~seq ~root ~fsync =
  {
    ls_path = path;
    fd;
    dir;
    tail;
    seq;
    sroot = root;
    fsync;
    closed = false;
    pins = [];
    journal = [];
    sealed_max = Hashtbl.fold (fun oid _ acc -> max oid acc) dir (-1);
    lock = Mutex.create ();
    stats = Store_stats.create ();
  }

let create ?(fsync = true) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd magic;
  if fsync then Unix.fsync fd;
  make ~path ~fd ~dir:(Hashtbl.create 256) ~tail:(String.length magic) ~seq:0 ~root:None
    ~fsync

let open_ ?(fsync = true) path =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR ] 0o644 with
    | Unix.Unix_error (Unix.ENOENT, _, _) -> fail "no store file at %s" path
  in
  let data = read_whole fd in
  match recover data with
  | exception e ->
    Unix.close fd;
    raise e
  | dir, sealed, seq, root ->
    let t = make ~path ~fd ~dir ~tail:sealed ~seq ~root ~fsync in
    let dropped = String.length data - sealed in
    if dropped > 0 then begin
      Unix.ftruncate fd sealed;
      if fsync then Unix.fsync fd;
      t.stats.Store_stats.recovery_truncations <- 1;
      t.stats.Store_stats.truncated_bytes <- dropped
    end;
    t

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        List.iter (fun sn -> sn.sn_active <- false) t.pins;
        t.pins <- [];
        t.journal <- [];
        Unix.close t.fd
      end)

(* ------------------------------------------------------------------ *)
(* Reads                                                                *)
(* ------------------------------------------------------------------ *)

let find t oid =
  locked t (fun () ->
      check_open t;
      match head_entry t oid with
      | Some e -> Some (read_exactly t.fd e.e_off e.e_len)
      | None -> None)

let find_at t sn oid =
  locked t (fun () ->
      check_open t;
      if not sn.sn_active then fail "snapshot (epoch %d) released" sn.sn_seq;
      match Hashtbl.find_opt t.dir oid with
      | None -> None
      | Some es -> (
        match List.find_opt (fun e -> e.e_seq <= sn.sn_seq) es with
        | Some e -> Some (read_exactly t.fd e.e_off e.e_len)
        | None -> None))

let latest_seq t oid =
  locked t (fun () -> Option.map (fun e -> e.e_seq) (head_entry t oid))

(* ------------------------------------------------------------------ *)
(* Writes                                                               *)
(* ------------------------------------------------------------------ *)

let commit ?root t batch =
  locked t (fun () ->
      check_open t;
      List.iter (fun (oid, _) -> if oid < 0 then fail "negative oid %d" oid) batch;
      let new_root =
        match root with
        | Some _ -> root
        | None -> t.sroot
      in
      if batch = [] && new_root = t.sroot then 0
      else begin
        let buf = Buffer.create 4096 in
        let seq' = t.seq + 1 in
        let located =
          List.map
            (fun (oid, payload) ->
              let payload_off = t.tail + encode_put buf oid payload in
              oid, { e_off = payload_off; e_len = String.length payload; e_seq = seq' })
            batch
        in
        encode_commit buf ~seq:seq' ~count:(List.length batch) ~root:new_root;
        ignore (Unix.lseek t.fd t.tail Unix.SEEK_SET);
        write_all t.fd (Buffer.contents buf);
        if t.fsync then Unix.fsync t.fd;
        let min_pin = min_pin_u t in
        List.iter
          (fun (oid, e) ->
            let old = Option.value ~default:[] (Hashtbl.find_opt t.dir oid) in
            Hashtbl.replace t.dir oid (prune_chain min_pin (e :: old));
            t.sealed_max <- max t.sealed_max oid)
          located;
        if t.pins <> [] then t.journal <- (seq', List.map fst located) :: t.journal;
        t.tail <- t.tail + Buffer.length buf;
        t.seq <- seq';
        t.sroot <- new_root;
        let n = List.length batch in
        t.stats.Store_stats.commits <- t.stats.Store_stats.commits + 1;
        t.stats.Store_stats.records_written <- t.stats.Store_stats.records_written + n;
        t.stats.Store_stats.bytes_written <-
          t.stats.Store_stats.bytes_written + Buffer.length buf;
        Tml_obs.Events.store_commit ~objects:n ~bytes:(Buffer.length buf);
        n
      end)

(* ------------------------------------------------------------------ *)
(* Compaction                                                           *)
(* ------------------------------------------------------------------ *)

let compact t =
  locked t (fun () ->
      check_open t;
      if t.pins <> [] then
        fail "compact: %d active snapshot(s) pin old versions" (List.length t.pins);
      let buf = Buffer.create (live_bytes_u t + 1024) in
      Buffer.add_string buf magic;
      let oids = List.sort compare (Hashtbl.fold (fun oid _ acc -> oid :: acc) t.dir []) in
      let seq' = t.seq + 1 in
      let located =
        List.filter_map
          (fun oid ->
            match head_entry t oid with
            | None -> None
            | Some e ->
              let payload = read_exactly t.fd e.e_off e.e_len in
              let payload_off = encode_put buf oid payload in
              Some (oid, { e_off = payload_off; e_len = e.e_len; e_seq = seq' }))
          oids
      in
      encode_commit buf ~seq:seq' ~count:(List.length located) ~root:t.sroot;
      let tmp = t.ls_path ^ ".compact" in
      let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      write_all fd (Buffer.contents buf);
      if t.fsync then Unix.fsync fd;
      Unix.rename tmp t.ls_path;
      Unix.close t.fd;
      t.fd <- fd;
      Hashtbl.reset t.dir;
      List.iter (fun (oid, e) -> Hashtbl.replace t.dir oid [ e ]) located;
      let old_tail = t.tail in
      t.tail <- Buffer.length buf;
      t.seq <- seq';
      t.stats.Store_stats.compactions <- t.stats.Store_stats.compactions + 1;
      Tml_obs.Events.store_compact ~live:(Buffer.length buf)
        ~dropped:(old_tail - Buffer.length buf))

(* ------------------------------------------------------------------ *)
(* Introspection                                                        *)
(* ------------------------------------------------------------------ *)

let register_metrics ?(name = "store.log") t =
  Tml_obs.Metrics.register_source ~name
    ~snapshot:(fun () ->
      locked t (fun () ->
          [
            "seq", Tml_obs.Metrics.I t.seq;
            "fsync", Tml_obs.Metrics.I (if t.fsync then 1 else 0);
            "snapshots_pinned", Tml_obs.Metrics.I (List.length t.pins);
            "objects", Tml_obs.Metrics.I (Hashtbl.length t.dir);
            "file_bytes", Tml_obs.Metrics.I t.tail;
          ]))
    ~reset:(fun () -> ())
