type t = { card_a : int; card_c : int; b : int; s : int }

let k t = float_of_int (t.b * t.card_c) /. float_of_int t.card_a

let complex_events t ~seed =
  let prng = Xy_util.Prng.create ~seed in
  Array.init t.card_c (fun _ ->
      Xy_util.Prng.distinct_sorted prng ~bound:t.card_a ~count:t.b)

let document_sets t ~seed ~count =
  let prng = Xy_util.Prng.create ~seed in
  Array.init count (fun _ ->
      Xy_util.Prng.distinct_sorted prng ~bound:t.card_a ~count:t.s)

let load_mqp ?algorithm t ~seed =
  let mqp = Mqp.create ?algorithm () in
  let events = complex_events t ~seed in
  Array.iteri (fun id set -> Mqp.subscribe mqp ~id set) events;
  mqp

let pp ppf t =
  Format.fprintf ppf "Card(A)=%d Card(C)=%d b=%d s=%d (k=%.2f)" t.card_a
    t.card_c t.b t.s (k t)
