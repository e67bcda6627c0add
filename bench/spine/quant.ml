(* Order statistics over the benchmark's full sample sets.  Latency
   percentiles use the nearest-rank definition (a percentile is always
   an observed sample); run-to-run quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spread printed here is the spread an external check computes. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest rank: the smallest sample with at least [p]% of the samples
   at or below it *)
let percentile xs p =
  match xs with
  | [] -> 0.
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [quartiles xs] = (q1, q2, q3); needs at least two samples (a single
   sample is its own quartiles) *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  match ld with
  | 0 -> (0., 0., 0.)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> 0.
  | pos -> exp (List.fold_left (fun a x -> a +. log x) 0. pos /. float_of_int (List.length pos))

(* a / b, 0 when nothing was counted *)
let ratio a b = if b = 0. then 0. else a /. b
