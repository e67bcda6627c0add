open Tml_core
open Tml_vm

type outcome =
  | Pass
  | Skip of string
  | Fail of string

let pp_outcome ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Skip m -> Format.fprintf ppf "skip (%s)" m
  | Fail m -> Format.fprintf ppf "FAIL: %s" m

let failf fmt = Format.kasprintf (fun m -> Fail m) fmt

(* [Term.alpha_equal_app] compares applications; wrap values in a dummy
   application node to compare them. *)
let wrap v = Term.app (Term.prim "rt-wrap") [ v ]

let ptml_value (v : Term.value) =
  match Tml_store.Ptml.decode_value (Tml_store.Ptml.encode_value v) with
  | exception e -> failf "PTML decode raised %s" (Printexc.to_string e)
  | v' ->
    if not (Term.alpha_equal_app (wrap v) (wrap v')) then
      failf "PTML round trip not α-equivalent:@.%a@.!=@.%a" Pp.pp_value v Pp.pp_value v'
    else if not (Term.equal_app (wrap v) (wrap v')) then
      failf "PTML round trip α-equivalent but stamps not preserved:@.%a@.!=@.%a" Pp.pp_value
        v Pp.pp_value v'
    else Pass

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let live_closure_reject msg =
  (* the one specified rejection: live closures are not persistable *)
  contains ~sub:"persist a live" msg

(* relations persist whole (REL1 carries the page/index/stats references
   in the payload); the rebuild-field list is only ever non-empty when
   decoding a legacy pre-paging image, which the encoder never emits *)
let obj (o : Value.obj) =
  match Obj_codec.encode_obj o with
  | exception Obj_codec.Codec_error m when live_closure_reject m -> Skip m
  | exception e -> failf "encode_obj raised %s" (Printexc.to_string e)
  | bytes -> (
    match Obj_codec.decode_obj bytes with
    | exception e -> failf "decode_obj raised %s" (Printexc.to_string e)
    | o', fields ->
      let before = Canon.render_obj_full o in
      let after = Canon.render_obj_full o' in
      if not (String.equal before after) then
        failf "object round trip differs:@.%s@.!=@.%s" before after
      else if fields <> [] then
        failf "fresh encoding claims legacy rebuild fields: [%s]"
          (String.concat " " (List.map string_of_int fields))
      else Pass)

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match la, lb with
    | [], [] -> "dumps differ (?)"
    | x :: _, [] -> Printf.sprintf "line %d only before reopen: %s" i x
    | [], y :: _ -> Printf.sprintf "line %d only after reopen: %s" i y
    | x :: la', y :: lb' ->
      if String.equal x y then go (i + 1) la' lb'
      else Printf.sprintf "line %d: %s != %s" i x y
  in
  go 1 la lb

(* fault every object of a lazy heap back in; the first failure *)
let fault_all heap =
  let error = ref None in
  for i = 0 to Value.Heap.size heap - 1 do
    match Value.Heap.get_opt heap (Oid.of_int i) with
    | _ -> ()
    | exception e -> if !error = None then error := Some (i, e)
  done;
  !error

let heap_reopen ~path setup =
  Tml_query.Qprims.install ();
  let cleanup () = try if Sys.file_exists path then Sys.remove path with Sys_error _ -> () in
  cleanup ();
  let heap = Value.Heap.create () in
  let ps = Pstore.attach ~fsync:false path heap in
  let finish outcome =
    Pstore.close ps;
    cleanup ();
    outcome
  in
  (* a live closure is the one specified rejection: the case is skipped *)
  let commit k =
    match Pstore.commit ps with
    | exception Obj_codec.Codec_error m when live_closure_reject m -> finish (Skip m)
    | exception Pstore.Store_error m when live_closure_reject m -> finish (Skip m)
    | exception e -> finish (failf "commit raised %s" (Printexc.to_string e))
    | _bytes_written -> k ()
  in
  match setup (Runtime.create heap) with
  | exception e -> finish (failf "setup raised %s" (Printexc.to_string e))
  | again ->
    commit @@ fun () ->
    (* the second run writes into objects the first commit sealed *)
    match again () with
    | exception e -> finish (failf "second run raised %s" (Printexc.to_string e))
    | () -> (
      (* fault back the functions the first commit evicted, so the dump
         shows them *)
      match fault_all heap with
      | Some (i, e) -> finish (failf "refaulting oid %d raised %s" i (Printexc.to_string e))
      | None ->
        let before = Canon.dump_heap_all heap in
        commit @@ fun () ->
        Pstore.close ps;
        match Pstore.open_ ~fsync:false path with
        | exception e ->
          cleanup ();
          failf "reopen raised %s" (Printexc.to_string e)
        | ps2 ->
          let heap2 = Pstore.heap ps2 in
          let outcome =
            match fault_all heap2 with
            | Some (i, e) -> failf "refaulting oid %d raised %s" i (Printexc.to_string e)
            | None ->
              let after = Canon.dump_heap_all heap2 in
              if String.equal before after then Pass
              else failf "reopened store differs: %s" (first_diff before after)
          in
          Pstore.close ps2;
          cleanup ();
          outcome)
