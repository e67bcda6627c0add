(* Reading the metrics registry back in tests. *)

(* [count ~source key] — the integer the registry's [source] reports under
   [key], read from its JSON snapshot (what [tmlsh :stats json] prints) *)
let count ~source key =
  let json = Tml_obs.Metrics.snapshot_json () in
  let rec find sub i =
    if i + String.length sub > String.length json then Alcotest.failf "no %s in %s" sub json
    else if String.sub json i (String.length sub) = sub then i + String.length sub
    else find sub (i + 1)
  in
  let at = find (Printf.sprintf "%S:" key) (find (Printf.sprintf "%S:{" source) 0) in
  Scanf.sscanf (String.sub json at (String.length json - at)) "%d" Fun.id
