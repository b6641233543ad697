(* Exact order statistics over raw samples.  Nothing here reads a
   histogram: [Xy_obs] rounds quantiles to factor-2 buckets, so every
   percentile the benchmark prints comes from the samples it timed
   itself. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* A percentile is printed only with at least ten samples beyond it. *)
let supported ~n p = float_of_int n *. (1. -. (p /. 100.)) >= 10.

let median samples = percentile (sorted samples) 50.

let mean samples =
  match samples with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives
   them (the default "exclusive" method), so the spread printed by
   [--runs] is the one the regression bounds are checked against. *)
let quartiles samples =
  let a = sorted samples in
  let n = Array.length a in
  let q i =
    if n = 1 then a.(0)
    else
      let m = float_of_int (n + 1) *. float_of_int i /. 4. in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
  in
  (q 1, q 2, q 3)
