open Tml_core
open Tml_vm

type oracle =
  | Diff
  | Query
  | Ptml
  | Store
  | Purity

let oracle_name = function
  | Diff -> "diff"
  | Query -> "query"
  | Ptml -> "ptml"
  | Store -> "store"
  | Purity -> "purity"

let oracle_of_name = function
  | "diff" -> Some Diff
  | "query" -> Some Query
  | "ptml" -> Some Ptml
  | "store" -> Some Store
  | "purity" -> Some Purity
  | _ -> None

let all_oracles = [ Diff; Query; Ptml; Store; Purity ]

type failure = {
  f_oracle : oracle;
  f_seed : int;
  f_entry : string;
  f_detail : string;
}

type stats = {
  mutable executed : int;
  mutable agreed : int;
  mutable skipped : int;
  mutable failed : int;
}

(* ------------------------------------------------------------------ *)
(* Corpus serialization                                                *)
(* ------------------------------------------------------------------ *)

type corpus_case =
  | Cdiff of Tgen.case
  | Cquery of Tgen.query_case

let rows_to_string rows =
  if rows = [] then "-"
  else String.concat "/" (List.map (fun r -> String.concat "," (List.map string_of_int r)) rows)

let rows_of_string s =
  if s = "-" then []
  else
    List.map
      (fun r -> List.map int_of_string (String.split_on_char ',' r))
      (String.split_on_char '/' s)

let entry_to_string oracle (c : corpus_case) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "; oracle: %s\n" (oracle_name oracle));
  let proc =
    match c with
    | Cdiff d ->
      Buffer.add_string buf
        (Printf.sprintf "; kind: diff\n; seed: %d\n; a: %d\n; b: %d\n" d.Tgen.seed d.Tgen.a
           d.Tgen.b);
      d.Tgen.proc
    | Cquery q ->
      Buffer.add_string buf
        (Printf.sprintf "; kind: query\n; seed: %d\n; rows: %s\n" q.Tgen.qseed
           (rows_to_string q.Tgen.rows));
      q.Tgen.qproc
  in
  Buffer.add_string buf (Sexp.print_app (Term.app (Term.prim "hold") [ proc ]));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let entry_of_string text =
  let lines = String.split_on_char '\n' text in
  let headers, term_lines =
    List.partition (fun l -> String.length l > 0 && l.[0] = ';') lines
  in
  let field key =
    let prefix = "; " ^ key ^ ": " in
    let n = String.length prefix in
    List.find_map
      (fun l ->
        if String.length l >= n && String.sub l 0 n = prefix then
          Some (String.sub l n (String.length l - n))
        else None)
      headers
  in
  let require key =
    match field key with
    | Some v -> v
    | None -> failwith (Printf.sprintf "corpus entry: missing '; %s:' header" key)
  in
  let oracle =
    match oracle_of_name (require "oracle") with
    | Some o -> o
    | None -> failwith "corpus entry: unknown oracle"
  in
  let proc =
    match Sexp.parse_app (String.concat "\n" term_lines) with
    | { Term.args = [ (Term.Abs _ as p) ]; _ } -> p
    | _ -> failwith "corpus entry: expected (hold proc(...) ...)"
  in
  let case =
    match require "kind" with
    | "diff" ->
      Cdiff
        {
          Tgen.seed = int_of_string (require "seed");
          proc;
          a = int_of_string (require "a");
          b = int_of_string (require "b");
        }
    | "query" ->
      Cquery
        {
          Tgen.qseed = int_of_string (require "seed");
          rows = rows_of_string (require "rows");
          qproc = proc;
        }
    | k -> failwith (Printf.sprintf "corpus entry: unknown kind %S" k)
  in
  oracle, case

let load_entry path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  entry_of_string text

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let minimize_steps = 200

let ptml_fails proc =
  match Roundtrip.ptml_value proc with
  | Roundtrip.Fail _ -> true
  | Roundtrip.Pass | Roundtrip.Skip _ -> false

let store_path () = Filename.temp_file "tmlfuzz" ".store"

(* run the case's program on a fresh relation, and return the step that
   runs it again on the same relation once [heap_reopen] has committed *)
let store_setup (q : Tgen.query_case) ctx =
  let rel =
    Tml_query.Rel.create ctx ~name:"t"
      (List.map (fun row -> Array.of_list (List.map (fun x -> Value.Int x) row)) q.Tgen.rows)
  in
  let run () =
    let v = Eval.eval_value ctx ~env:Ident.Map.empty q.Tgen.qproc in
    ignore (Eval.run_proc ctx v [ Value.Oidv rel ])
  in
  run ();
  run

let store_outcome (q : Tgen.query_case) =
  let path = store_path () in
  Roundtrip.heap_reopen ~path (store_setup q)

let store_fails q =
  match store_outcome q with
  | Roundtrip.Fail _ -> true
  | Roundtrip.Pass | Roundtrip.Skip _ -> false

let run_seed ~validate ?min_size ?max_size oracle seed =
  let engines = Oracle.engines ~validate in
  match oracle with
  | Diff -> (
    let c = Tgen.case_of_seed ?min_size ?max_size seed in
    match Oracle.check_case ~engines c with
    | Oracle.Agree _ -> `Agree
    | Oracle.Disagree _ as v ->
      let m =
        Tgen.minimize ~shrink:Tgen.shrink_case
          ~fails:(Oracle.case_fails ~engines)
          ~max_steps:minimize_steps c
      in
      let detail =
        match Oracle.check_case ~engines m with
        | Oracle.Agree _ -> Format.asprintf "%a" Oracle.pp_verdict v
        | v' -> Format.asprintf "%a" Oracle.pp_verdict v'
      in
      `Fail
        { f_oracle = oracle; f_seed = seed; f_entry = entry_to_string oracle (Cdiff m); f_detail = detail })
  | Query -> (
    let q = Tgen.query_case_of_seed seed in
    match Oracle.check_query ~engines q with
    | Oracle.Agree _ -> `Agree
    | Oracle.Disagree _ as v ->
      let m =
        Tgen.minimize ~shrink:Tgen.shrink_query_case
          ~fails:(Oracle.query_fails ~engines)
          ~max_steps:minimize_steps q
      in
      let detail =
        match Oracle.check_query ~engines m with
        | Oracle.Agree _ -> Format.asprintf "%a" Oracle.pp_verdict v
        | v' -> Format.asprintf "%a" Oracle.pp_verdict v'
      in
      `Fail
        {
          f_oracle = oracle;
          f_seed = seed;
          f_entry = entry_to_string oracle (Cquery m);
          f_detail = detail;
        })
  | Ptml -> (
    (* alternate between plain and query programs so the query primitives
       go through the codec too *)
    let proc =
      if seed mod 2 = 0 then (Tgen.case_of_seed ?min_size ?max_size seed).Tgen.proc
      else (Tgen.query_case_of_seed seed).Tgen.qproc
    in
    match Roundtrip.ptml_value proc with
    | Roundtrip.Pass -> `Agree
    | Roundtrip.Skip m -> `Skip m
    | Roundtrip.Fail _ ->
      let m =
        Tgen.minimize
          ~shrink:(Tgen.shrink_value ~allowed_free:Ident.Set.empty)
          ~fails:ptml_fails ~max_steps:minimize_steps proc
      in
      let detail =
        match Roundtrip.ptml_value m with
        | Roundtrip.Fail d -> d
        | _ -> "minimization lost the failure (reporting the original)"
      in
      `Fail
        {
          f_oracle = oracle;
          f_seed = seed;
          f_entry = entry_to_string oracle (Cdiff { Tgen.seed; proc = m; a = 0; b = 0 });
          f_detail = detail;
        })
  | Store -> (
    let q = Tgen.query_case_of_seed seed in
    match store_outcome q with
    | Roundtrip.Pass -> `Agree
    | Roundtrip.Skip m -> `Skip m
    | Roundtrip.Fail _ ->
      let m =
        Tgen.minimize ~shrink:Tgen.shrink_query_case ~fails:store_fails
          ~max_steps:minimize_steps q
      in
      let detail =
        match store_outcome m with
        | Roundtrip.Fail d -> d
        | _ -> "minimization lost the failure (reporting the original)"
      in
      `Fail
        {
          f_oracle = oracle;
          f_seed = seed;
          f_entry = entry_to_string oracle (Cquery m);
          f_detail = detail;
        })
  | Purity -> (
    let q = Tgen.query_case_of_seed seed in
    match Oracle.check_purity q with
    | Oracle.Purity_agree -> `Agree
    | Oracle.Purity_untestable m -> `Skip m
    | Oracle.Purity_violation _ ->
      let m =
        Tgen.minimize ~shrink:Tgen.shrink_query_case ~fails:Oracle.purity_fails
          ~max_steps:minimize_steps q
      in
      let detail =
        match Oracle.check_purity m with
        | Oracle.Purity_violation d -> d
        | _ -> "minimization lost the failure (reporting the original)"
      in
      `Fail
        {
          f_oracle = oracle;
          f_seed = seed;
          f_entry = entry_to_string oracle (Cquery m);
          f_detail = detail;
        })

let run_campaign ?(progress = fun _ -> ()) ?min_size ?max_size ~oracles ~validate ~first_seed
    ~count () =
  let stats = { executed = 0; agreed = 0; skipped = 0; failed = 0 } in
  let failures = ref [] in
  for i = 0 to count - 1 do
    let seed = first_seed + i in
    List.iter
      (fun oracle ->
        stats.executed <- stats.executed + 1;
        match run_seed ~validate ?min_size ?max_size oracle seed with
        | `Agree -> stats.agreed <- stats.agreed + 1
        | `Skip _ -> stats.skipped <- stats.skipped + 1
        | `Fail f ->
          stats.failed <- stats.failed + 1;
          failures := f :: !failures)
      oracles;
    progress (i + 1)
  done;
  stats, List.rev !failures

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay ~validate oracle (case : corpus_case) =
  let engines = Oracle.engines ~validate in
  let of_verdict = function
    | Oracle.Agree _ -> Ok ()
    | Oracle.Disagree _ as v -> Error (Format.asprintf "%a" Oracle.pp_verdict v)
  in
  let of_outcome = function
    | Roundtrip.Pass | Roundtrip.Skip _ -> Ok ()
    | Roundtrip.Fail m -> Error m
  in
  match oracle, case with
  | Diff, Cdiff c -> of_verdict (Oracle.check_case ~engines c)
  | Query, Cquery q -> of_verdict (Oracle.check_query ~engines q)
  | Ptml, Cdiff c -> of_outcome (Roundtrip.ptml_value c.Tgen.proc)
  | Ptml, Cquery q -> of_outcome (Roundtrip.ptml_value q.Tgen.qproc)
  | Store, Cquery q -> of_outcome (store_outcome q)
  | Purity, Cquery q -> (
    match Oracle.check_purity q with
    | Oracle.Purity_violation d -> Error d
    | Oracle.Purity_agree | Oracle.Purity_untestable _ -> Ok ())
  | Diff, Cquery _ | Query, Cdiff _ | Store, Cdiff _ | Purity, Cdiff _ ->
    Error "corpus entry kind does not match its oracle"

(* ------------------------------------------------------------------ *)
(* JSON stats                                                          *)
(* ------------------------------------------------------------------ *)

let stats_json stats failures =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"executed\":%d,\"agreed\":%d,\"skipped\":%d,\"failed\":%d,\"failures\":["
       stats.executed stats.agreed stats.skipped stats.failed);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"oracle\":\"%s\",\"seed\":%d,\"detail\":%s}"
           (oracle_name f.f_oracle) f.f_seed (Tml_obs.Json.quote f.f_detail)))
    failures;
  Buffer.add_string buf "]}";
  Buffer.contents buf
