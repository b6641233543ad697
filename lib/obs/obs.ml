(* Metric accumulation stripes every instrument's state over
   per-domain cells merged only when a snapshot is taken.  A domain
   takes a stripe from a free list on its first write and returns it
   when it exits, so distinct live domains own distinct stripes (up to
   [stripes] of them) and the hot path needs neither atomic RMW nor
   allocation: a plain word-sized load/store pair on a domain-private
   slot.  Domain ids are never reused, so striping by id instead would
   make the 64th domain a process spawns share the main domain's
   stripe.  Word accesses cannot tear under the OCaml memory model;
   only beyond [stripes] live domains do stripes collide, which can
   lose an increment, never corrupt.  Snapshot readers may observe
   slightly stale stripe values — the usual statistical-counter
   contract. *)

(* CLOCK_MONOTONIC through a C stub (obs_clock.c): nanosecond
   resolution, and it never steps back. *)
external now : unit -> (float[@unboxed]) = "xy_obs_now" "xy_obs_now_unboxed"
[@@noalloc]

let stripes = 64 (* power of two *)

let free_stripes = ref (List.init stripes Fun.id)
let free_lock = Mutex.create ()
let stripe_key = Domain.DLS.new_key (fun () -> -1)

let acquire_stripe () =
  Mutex.lock free_lock;
  let s =
    match !free_stripes with
    | s :: rest ->
        free_stripes := rest;
        Domain.at_exit (fun () ->
            Mutex.lock free_lock;
            free_stripes := s :: !free_stripes;
            Mutex.unlock free_lock);
        s
    | [] -> (Domain.self () :> int) land (stripes - 1)
  in
  Mutex.unlock free_lock;
  Domain.DLS.set stripe_key s;
  s

let stripe () =
  let s = Domain.DLS.get stripe_key in
  if s >= 0 then s else acquire_stripe ()

(* ------------------------------------------------------------------ *)
(* Cells: each stripe's are a heap block of their own, allocated on
   the stripe's first write and written by one domain only, so they
   need no padding against false sharing, and a snapshot folds only
   the stripes in use. *)

let unused_cells () = Array.make stripes [||]
let reset_cells per_stripe = Array.fill per_stripe 0 stripes [||]

let stripe_cells (per_stripe : int array array) s ~len =
  let cells = Array.unsafe_get per_stripe s in
  if Array.length cells > 0 then cells
  else begin
    let cells = Array.make len 0 in
    per_stripe.(s) <- cells;
    cells
  end

(* ------------------------------------------------------------------ *)
(* Instruments *)

module Counter = struct
  type t = int array array  (** per stripe: one cell, [||] until used *)

  let make = unused_cells

  let add t n =
    let cell = stripe_cells t (stripe ()) ~len:1 in
    Array.unsafe_set cell 0 (Array.unsafe_get cell 0 + n)

  let incr t = add t 1

  let value t =
    Array.fold_left
      (fun acc cell -> if Array.length cell > 0 then acc + cell.(0) else acc)
      0 t

  let reset = reset_cells
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.
  let set t v = Atomic.set t v
  let set_int t v = set t (float_of_int v)
  let value t = Atomic.get t
end

module Histogram = struct
  (* One layout for every histogram, computed from the value's float
     bits rather than chosen by the caller: 16 log-linear sub-buckets
     per power of two over (2^-30, 2^40], so a bucket's upper bound is
     within 1/16 of any value in it.  That spans sub-µs latencies,
     multi-month staleness and 10^6-element sizes alike.  Buckets are
     (lo, hi], so every power of two is an exact boundary.  Bucket 0
     holds zero and negative values, bucket 1 (0, 2^-30], the last
     bucket everything above 2^40 (and nan). *)
  let sub_bits = 4
  let min_exp = -30
  let max_exp = 40
  let shift = 52 - sub_bits

  (* the biased exponent and sub-bucket bits of 2^min_exp *)
  let floor_key = (min_exp + 1023) lsl sub_bits

  let spans = (max_exp - min_exp) lsl sub_bits
  let buckets = spans + 3

  let index v =
    if v > 0. then
      (* the predecessor's bits put a bucket's upper bound inside it *)
      let k =
        Int64.(to_int (shift_right_logical (pred (bits_of_float v)) shift))
        - floor_key
      in
      if k < 0 then 1 else if k < spans then k + 2 else buckets - 1
    else if v <= 0. then 0
    else buckets - 1

  let upper_bound i =
    if i = 0 then 0.
    else if i >= buckets - 1 then infinity
    else Int64.(float_of_bits (shift_left (of_int (floor_key + i - 1)) shift))

  (* Per-stripe bucket counts live in the stripe's cells, and the
     running sum/min/max in a stripe-private unboxed float array, so
     one [observe] is a handful of plain array accesses. *)
  type t = {
    counts : int array array;  (** per stripe: [||] until first used *)
    accs : float array array;  (** per stripe: [|sum; min; max|] *)
  }

  let fresh_acc _ = [| 0.; infinity; neg_infinity |]
  let make () =
    { counts = unused_cells (); accs = Array.init stripes fresh_acc }

  let stripe_counts t s = stripe_cells t.counts s ~len:buckets

  (* The min and max move before the bucket count: {!totals} folds
     only the buckets between them, so a count must not land outside
     the bounds it has been seen with (up to the staleness a reader on
     another domain may see anyway). *)
  let observe t v =
    let s = stripe () in
    let counts = stripe_counts t s in
    let i = index v in
    let acc = Array.unsafe_get t.accs s in
    Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. v);
    if v < Array.unsafe_get acc 1 then Array.unsafe_set acc 1 v;
    if v > Array.unsafe_get acc 2 then Array.unsafe_set acc 2 v;
    Array.unsafe_set counts i (Array.unsafe_get counts i + 1)

  let time t f =
    let start = now () in
    match f () with
    | result ->
        observe t (now () -. start);
        result
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        observe t (now () -. start);
        Printexc.raise_with_backtrace e bt

  (* Warm-restart carry: fold previously captured totals back into the
     calling domain's stripe.  Meant for single-threaded restore. *)
  let inject t ~counts ~sum ~min_value ~max_value =
    let s = stripe () in
    let mine = stripe_counts t s in
    List.iter (fun (i, c) -> mine.(i) <- mine.(i) + c) counts;
    let acc = t.accs.(s) in
    acc.(0) <- acc.(0) +. sum;
    if min_value < acc.(1) then acc.(1) <- min_value;
    if max_value > acc.(2) then acc.(2) <- max_value

  let count t =
    Array.fold_left
      (fun acc counts -> acc + Array.fold_left ( + ) 0 counts)
      0 t.counts

  let sum t = Array.fold_left (fun acc a -> acc +. a.(0)) 0. t.accs

  (* Merge the stripes: (the non-empty buckets as ascending (bucket,
     count) pairs, total, sum, min, max).  [index] is monotonic, so
     every sample but NaN lies in a bucket from [index min] to
     [index max]; NaN moves neither bound and lands in the overflow
     bucket, which is folded too.  The fold visits 16 buckets per
     power of two between the bounds, from bucket 0 once a sample was
     zero or negative: 50 to 800 of the layout's 1,123 buckets for
     the histograms a benchmark [monitor] run fills. *)
  let totals t =
    let used =
      List.filter (fun c -> Array.length c > 0) (Array.to_list t.counts)
    in
    let sum = ref 0. in
    let min_value = ref infinity and max_value = ref neg_infinity in
    Array.iter
      (fun a ->
        sum := !sum +. a.(0);
        if a.(1) < !min_value then min_value := a.(1);
        if a.(2) > !max_value then max_value := a.(2))
      t.accs;
    let counts = ref [] and count = ref 0 in
    let fold i =
      let c =
        List.fold_left (fun n counts -> n + Array.unsafe_get counts i) 0 used
      in
      if c > 0 then begin
        counts := (i, c) :: !counts;
        count := !count + c
      end
    in
    let overflow = buckets - 1 in
    fold overflow;
    for i = min (index !max_value) (overflow - 1) downto index !min_value do
      fold i
    done;
    (!counts, !count, !sum, !min_value, !max_value)

  let reset t =
    reset_cells t.counts;
    Array.iteri (fun s _ -> t.accs.(s) <- fresh_acc s) t.accs
end

(* ------------------------------------------------------------------ *)
(* Registry *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type t = {
  lock : Mutex.t;
  table : (string * string, metric) Hashtbl.t;
}

let create () = { lock = Mutex.create (); table = Hashtbl.create 64 }
let default = create ()

let intern t ~stage name ~kind ~make ~extract =
  Mutex.lock t.lock;
  let metric =
    match Hashtbl.find_opt t.table (stage, name) with
    | Some metric -> metric
    | None ->
        let metric = make () in
        Hashtbl.replace t.table (stage, name) metric;
        metric
  in
  Mutex.unlock t.lock;
  match extract metric with
  | Some instrument -> instrument
  | None ->
      invalid_arg
        (Printf.sprintf "Obs: (%s, %s) is already registered as a non-%s" stage
           name kind)

let counter t ~stage name =
  intern t ~stage name ~kind:"counter"
    ~make:(fun () -> M_counter (Counter.make ()))
    ~extract:(function M_counter c -> Some c | _ -> None)

let gauge t ~stage name =
  intern t ~stage name ~kind:"gauge"
    ~make:(fun () -> M_gauge (Gauge.make ()))
    ~extract:(function M_gauge g -> Some g | _ -> None)

let histogram t ~stage name =
  intern t ~stage name ~kind:"histogram"
    ~make:(fun () -> M_histogram (Histogram.make ()))
    ~extract:(function M_histogram h -> Some h | _ -> None)

(* ------------------------------------------------------------------ *)
(* Export encoding *)

module Export = struct
  (* A decimal of at most 15 significant digits survives a trip
     through a double (DBL_DIG), so %.15g is the shortest form whenever
     one that short exists, and prints an integer below 1e15 without
     an exponent; %.17g always reads back. *)
  let number v =
    if Float.is_nan v then "NaN"
    else if v = infinity then "+Inf"
    else if v = neg_infinity then "-Inf"
    else
      let exact precision =
        let s = Printf.sprintf "%.*g" precision v in
        if float_of_string s = v then Some s else None
      in
      match List.find_map exact [ 15; 16 ] with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" v

  let json_number v = if Float.is_finite v then number v else "null"

  let json_string s =
    let buffer = Buffer.create (String.length s + 2) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '\n' -> Buffer.add_string buffer "\\n"
        | '\r' -> Buffer.add_string buffer "\\r"
        | '\t' -> Buffer.add_string buffer "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"';
    Buffer.contents buffer
end

(* ------------------------------------------------------------------ *)
(* Snapshots *)

module Snapshot = struct
  type histogram = {
    counts : (int * int) list;
    count : int;
    sum : float;
    min_value : float;
    max_value : float;
  }

  let buckets = Histogram.buckets
  let upper_bound = Histogram.upper_bound

  type value = Counter of int | Gauge of float | Histogram of histogram
  type entry = { stage : string; name : string; value : value }
  type t = { at : float; entries : entry list }

  let empty = { at = neg_infinity; entries = [] }

  let key e = (e.stage, e.name)

  (* Two lists sorted by [key], with the elements of equal keys
     combined: entries by (stage, name), buckets by index. *)
  let rec merge_sorted key combine xs ys =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
        let c = compare (key x) (key y) in
        if c < 0 then x :: merge_sorted key combine xs' ys
        else if c > 0 then y :: merge_sorted key combine xs ys'
        else combine x y :: merge_sorted key combine xs' ys'

  let merge_value a b =
    match a, b with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (Float.max x y)
    | Histogram x, Histogram y ->
        Histogram
          {
            counts =
              merge_sorted fst
                (fun (i, a) (_, b) -> (i, a + b))
                x.counts y.counts;
            count = x.count + y.count;
            sum = x.sum +. y.sum;
            min_value = Float.min x.min_value y.min_value;
            max_value = Float.max x.max_value y.max_value;
          }
    | _ -> invalid_arg "Obs.Snapshot.merge: instrument kinds differ"

  let merge a b =
    let combine x y = { x with value = merge_value x.value y.value } in
    {
      at = Float.max a.at b.at;
      entries = merge_sorted key combine a.entries b.entries;
    }

  let find t ~stage name =
    List.find_map
      (fun e -> if e.stage = stage && e.name = name then Some e.value else None)
      t.entries

  let counter_value t ~stage name =
    match find t ~stage name with Some (Counter n) -> n | _ -> 0

  let quantile h q =
    if h.count = 0 then nan
    else begin
      let rank = Float.max 1. (Float.of_int h.count *. q) in
      let rec go cumulative = function
        | [] -> buckets - 1
        | [ (i, _) ] -> i
        | (i, c) :: rest ->
            let cumulative = cumulative + c in
            if Float.of_int cumulative >= rank then i else go cumulative rest
      in
      Float.min h.max_value
        (Float.max h.min_value (upper_bound (go 0 h.counts)))
    end

  let count_le h x =
    List.fold_left
      (fun n (i, c) -> if upper_bound i <= x then n + c else n)
      0 h.counts

  (* -------------------------------------------------------------- *)
  (* Renderers *)

  let pp_number ppf v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Format.fprintf ppf "%.0f" v
    else Format.fprintf ppf "%.4g" v

  let pp_value ppf = function
    | Counter n -> Format.fprintf ppf "%d" n
    | Gauge v -> pp_number ppf v
    | Histogram h ->
        if h.count = 0 then Format.fprintf ppf "count=0"
        else
          Format.fprintf ppf
            "count=%d mean=%a p50<=%a p95<=%a p99<=%a max=%a" h.count pp_number
            (h.sum /. Float.of_int h.count)
            pp_number (quantile h 0.5) pp_number (quantile h 0.95) pp_number
            (quantile h 0.99) pp_number h.max_value

  let pp ppf t =
    Format.pp_open_vbox ppf 0;
    let last_stage = ref None in
    List.iter
      (fun e ->
        if !last_stage <> Some e.stage then begin
          if !last_stage <> None then Format.pp_print_cut ppf ();
          Format.fprintf ppf "[%s]@," e.stage;
          last_stage := Some e.stage
        end;
        Format.fprintf ppf "  %-28s %a@," e.name pp_value e.value)
      t.entries;
    if t.entries = [] then Format.fprintf ppf "(no metrics registered)@,";
    Format.pp_close_box ppf ()

  let escape s =
    let buffer = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buffer "&amp;"
        | '<' -> Buffer.add_string buffer "&lt;"
        | '>' -> Buffer.add_string buffer "&gt;"
        | '"' -> Buffer.add_string buffer "&quot;"
        | c -> Buffer.add_char buffer c)
      s;
    Buffer.contents buffer

  let to_xml_string t =
    let number = Export.number in
    let buffer = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
    add "<metrics at=\"%s\">\n" (number t.at);
    let last_stage = ref None in
    let close_stage () =
      if !last_stage <> None then add "  </stage>\n"
    in
    List.iter
      (fun e ->
        if !last_stage <> Some e.stage then begin
          close_stage ();
          add "  <stage name=\"%s\">\n" (escape e.stage);
          last_stage := Some e.stage
        end;
        match e.value with
        | Counter n -> add "    <counter name=\"%s\" value=\"%d\"/>\n" (escape e.name) n
        | Gauge v ->
            add "    <gauge name=\"%s\" value=\"%s\"/>\n" (escape e.name)
              (number v)
        | Histogram h ->
            let q p = number (if h.count = 0 then 0. else quantile h p) in
            add
              "    <histogram name=\"%s\" count=\"%d\" sum=\"%s\" max=\"%s\" \
               p50=\"%s\" p95=\"%s\" p99=\"%s\">\n"
              (escape e.name) h.count (number h.sum)
              (number (if h.count = 0 then 0. else h.max_value))
              (q 0.5) (q 0.95) (q 0.99);
            List.iter
              (fun (i, c) ->
                add "      <bucket le=\"%s\" count=\"%d\"/>\n"
                  (number (upper_bound i)) c)
              h.counts;
            add "    </histogram>\n")
      t.entries;
    close_stage ();
    add "</metrics>\n";
    Buffer.contents buffer
end

let snapshot t =
  Mutex.lock t.lock;
  let metrics =
    Hashtbl.fold (fun key metric acc -> (key, metric) :: acc) t.table []
  in
  Mutex.unlock t.lock;
  let entries =
    List.map
      (fun ((stage, name), metric) ->
        let value =
          match metric with
          | M_counter c -> Snapshot.Counter (Counter.value c)
          | M_gauge g -> Snapshot.Gauge (Gauge.value g)
          | M_histogram h ->
              let counts, count, sum, min_value, max_value =
                Histogram.totals h
              in
              Snapshot.Histogram
                { Snapshot.counts; count; sum; min_value; max_value }
        in
        { Snapshot.stage; name; value })
      metrics
    |> List.sort (fun a b -> compare (Snapshot.key a) (Snapshot.key b))
  in
  { Snapshot.at = now (); entries }

(* Warm-restart carry: fold a snapshot's cumulative values back into
   live instruments (created on demand), so series like [/metrics]
   counters keep climbing across a restore instead of resetting to
   zero.  Counters add, gauges set, histograms add bucket counts
   verbatim.  Single-threaded restore only. *)
let absorb t (s : Snapshot.t) =
  List.iter
    (fun e ->
      let stage = e.Snapshot.stage and name = e.Snapshot.name in
      match e.Snapshot.value with
      | Snapshot.Counter n -> Counter.add (counter t ~stage name) n
      | Snapshot.Gauge v -> Gauge.set (gauge t ~stage name) v
      | Snapshot.Histogram h ->
          Histogram.inject (histogram t ~stage name) ~counts:h.Snapshot.counts
            ~sum:h.Snapshot.sum ~min_value:h.Snapshot.min_value
            ~max_value:h.Snapshot.max_value)
    s.Snapshot.entries

let reset t =
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.set g 0.
      | M_histogram h -> Histogram.reset h)
    t.table;
  Mutex.unlock t.lock
