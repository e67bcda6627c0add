(* Reading the metrics registry back in tests. *)

(* A JSON value, as far as the registry's snapshot and tmld's Stat
   frame need one: objects, strings and numbers. *)
type json = Obj of (string * json) list | Str of string | Num of float

let parse s =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if String.contains " \n\t\r" (peek ()) && !pos < n then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then Alcotest.failf "expected %c at %d in %s" c !pos s;
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else members []
    | '"' -> Str (str ())
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eEnaif" s.[!pos] do
        incr pos
      done;
      Num (float_of_string (String.sub s start (!pos - start)))
  and members acc =
    let k = str () in
    expect ':';
    let v = value () in
    skip ();
    if peek () = ',' then begin
      incr pos;
      members ((k, v) :: acc)
    end
    else begin
      expect '}';
      Obj (List.rev ((k, v) :: acc))
    end
  in
  value ()

(* [find path v] — the value at [path] (one object key per step) *)
let find path v =
  List.fold_left
    (fun v k -> match v with Some (Obj kvs) -> List.assoc_opt k kvs | _ -> None)
    (Some v) path

(* [count ~source key] — the integer the registry's [source] reports under
   [key], read from its JSON snapshot (what [tmlsh :stats json] prints) *)
let count ~source key =
  let json = Tml_obs.Metrics.snapshot_json () in
  match find [ "sources"; source; key ] (parse json) with
  | Some (Num f) -> int_of_float f
  | _ -> Alcotest.failf "no sources.%s.%s in %s" source key json
