(* Seeded operation streams.  Each load session draws its own sequence
   from (seed, workload, session), so an identical --seed replays the
   identical op and key sequence; the server only ever sees the
   generated TL requests.

   Op kinds are dealt from a shuffled deck of 20 holding the mix's exact
   proportions, so every 20 ops of a session realize the mix and the
   run-to-run spread does not depend on how the draws fell. *)

type op =
  | Get of int  (** key in 1..rows, Zipfian (rank = key) *)
  | Scan of int  (** field-2 value in 0..96, uniform *)
  | Put of int  (** payload of the next row *)

(* percentages of get and put, multiples of 5; the rest is scan *)
type mix = { get_pct : int; put_pct : int }

type kind = K_get | K_put | K_scan

type t = { rng : Random.State.t; cdf : float array; deck : kind array; mutable dealt : int }

let modulus = 97

(* YCSB's default skew *)
let zipf_theta = 0.99

let zipf_cdf n =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** zipf_theta)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let create ~seed ~workload ~session ~rows mix =
  let deck =
    Array.init 20 (fun i ->
        if i < mix.get_pct / 5 then K_get else if i < (mix.get_pct + mix.put_pct) / 5 then K_put else K_scan)
  in
  { rng = Random.State.make [| seed; session; Hashtbl.hash workload |]; cdf = zipf_cdf rows; deck;
    dealt = Array.length deck }

(* first index whose cumulative weight reaches [u] *)
let zipf_key t =
  let u = Random.State.float t.rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo + 1

let next t =
  if t.dealt = Array.length t.deck then begin
    for i = Array.length t.deck - 1 downto 1 do
      let j = Random.State.int t.rng (i + 1) in
      let x = t.deck.(i) in
      t.deck.(i) <- t.deck.(j);
      t.deck.(j) <- x
    done;
    t.dealt <- 0
  end;
  let k = t.deck.(t.dealt) in
  t.dealt <- t.dealt + 1;
  match k with
  | K_get -> Get (zipf_key t)
  | K_put -> Put (Random.State.int t.rng 1_000_000)
  | K_scan -> Scan (Random.State.int t.rng modulus)

(* rows (i, i mod 97) for i in 1..rows: how many have field 2 = v *)
let scan_expected ~rows v =
  let n = ref 0 in
  for i = 1 to rows do
    if i mod modulus = v then incr n
  done;
  !n
