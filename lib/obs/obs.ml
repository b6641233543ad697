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

let now_fn : (unit -> float) ref = ref Sys.time
let set_timer f = now_fn := f
let now () = !now_fn ()

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
(* Cells: padded so each stripe's live slot sits on its own cache line
   (8 words = 64 bytes), preventing false sharing between domains. *)

let pad = 8

let make_cells () = Array.make (stripes * pad) 0

let cells_add cells n =
  let i = stripe () * pad in
  Array.unsafe_set cells i (Array.unsafe_get cells i + n)

let cells_total cells = Array.fold_left ( + ) 0 cells
let cells_reset cells = Array.fill cells 0 (Array.length cells) 0

(* ------------------------------------------------------------------ *)
(* Instruments *)

module Counter = struct
  type t = int array

  let make () = make_cells ()
  let add t n = cells_add t n
  let incr t = add t 1
  let value t = cells_total t
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.
  let set t v = Atomic.set t v
  let set_int t v = set t (float_of_int v)
  let value t = Atomic.get t
end

module Histogram = struct
  (* Per-stripe bucket counts live in a stripe-private array (separate
     heap block per domain — no false sharing), and the running
     sum/max pair in a stripe-private unboxed float array, so one
     [observe] is a handful of plain array accesses. *)
  type t = {
    bounds : float array;  (** ascending upper bounds *)
    counts : int array array;  (** per stripe: one count per bound, + overflow *)
    accs : float array array;  (** per stripe: [|sum; max|] *)
  }

  let make bounds =
    let n = Array.length bounds in
    for i = 1 to n - 1 do
      if bounds.(i - 1) >= bounds.(i) then
        invalid_arg "Obs.histogram: bucket bounds must be strictly ascending"
    done;
    {
      bounds;
      counts = Array.init stripes (fun _ -> Array.make (n + 1) 0);
      accs = Array.init stripes (fun _ -> [| 0.; neg_infinity |]);
    }

  let bucket_index bounds v =
    (* at most a couple of dozen buckets: the linear scan beats a
       binary search on branch-predictable small arrays *)
    let n = Array.length bounds in
    let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe t v =
    let s = stripe () in
    let counts = Array.unsafe_get t.counts s in
    let i = bucket_index t.bounds v in
    Array.unsafe_set counts i (Array.unsafe_get counts i + 1);
    let acc = Array.unsafe_get t.accs s in
    Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. v);
    if v > Array.unsafe_get acc 1 then Array.unsafe_set acc 1 v

  let time t f =
    (* Clamp at zero: a non-monotonic timer (NTP step, or the default
       [Sys.time] CPU clock racing a wall-clock installed mid-run) must
       never record a negative duration — it would poison [sum]. *)
    let start = now () in
    match f () with
    | result ->
        observe t (Float.max 0. (now () -. start));
        result
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        observe t (Float.max 0. (now () -. start));
        Printexc.raise_with_backtrace e bt

  (* Warm-restart carry: fold previously captured totals back into the
     calling domain's stripe.  Meant for single-threaded restore. *)
  let inject t ~counts ~sum ~max_value =
    let s = stripe () in
    let mine = t.counts.(s) in
    if Array.length counts <> Array.length mine then
      invalid_arg "Obs.Histogram.inject: bucket layouts differ";
    Array.iteri (fun i c -> mine.(i) <- mine.(i) + c) counts;
    let acc = t.accs.(s) in
    acc.(0) <- acc.(0) +. sum;
    if max_value > acc.(1) then acc.(1) <- max_value

  let count t =
    Array.fold_left
      (fun acc counts -> acc + Array.fold_left ( + ) 0 counts)
      0 t.counts

  let sum t = Array.fold_left (fun acc a -> acc +. a.(0)) 0. t.accs

  (* Merge the stripes: (per-bucket counts, total, sum, max). *)
  let totals t =
    let n = Array.length t.bounds in
    let counts = Array.make (n + 1) 0 in
    Array.iter
      (fun stripe_counts ->
        Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) stripe_counts)
      t.counts;
    let sum = ref 0. and max_value = ref neg_infinity in
    Array.iter
      (fun a ->
        sum := !sum +. a.(0);
        if a.(1) > !max_value then max_value := a.(1))
      t.accs;
    (counts, Array.fold_left ( + ) 0 counts, !sum, !max_value)
end

(* ------------------------------------------------------------------ *)
(* Bucket layouts *)

let exponential_buckets ~start ~factor ~count =
  if start <= 0. || factor <= 1. || count <= 0 then
    invalid_arg "Obs.exponential_buckets";
  let bounds = Array.make count start in
  for i = 1 to count - 1 do
    bounds.(i) <- bounds.(i - 1) *. factor
  done;
  bounds

(* 1µs … ~128s *)
let latency_buckets = exponential_buckets ~start:1e-6 ~factor:2. ~count:28

(* 1 … 10⁶ *)
let size_buckets = exponential_buckets ~start:1. ~factor:10. ~count:7

(* 1s … ~97 days: virtual-clock staleness (detection / notification
   lag).  Change lifetimes span seconds (a hot page fetched next step)
   to months (a cold page under a starved fetch budget), so the decade
   coverage must be much wider than [latency_buckets]. *)
let staleness_buckets = exponential_buckets ~start:1. ~factor:2. ~count:24

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

let histogram ?(buckets = latency_buckets) t ~stage name =
  intern t ~stage name ~kind:"histogram"
    ~make:(fun () -> M_histogram (Histogram.make buckets))
    ~extract:(function M_histogram h -> Some h | _ -> None)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

module Snapshot = struct
  type histogram = {
    bounds : float array;
    counts : int array;
    count : int;
    sum : float;
    max_value : float;
  }

  type value = Counter of int | Gauge of float | Histogram of histogram
  type entry = { stage : string; name : string; value : value }
  type t = { at : float; entries : entry list }

  let empty = { at = neg_infinity; entries = [] }

  let key e = (e.stage, e.name)

  let merge_value a b =
    match a, b with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (Float.max x y)
    | Histogram x, Histogram y ->
        if x.bounds <> y.bounds then
          invalid_arg "Obs.Snapshot.merge: histogram bucket layouts differ";
        Histogram
          {
            bounds = x.bounds;
            counts = Array.map2 ( + ) x.counts y.counts;
            count = x.count + y.count;
            sum = x.sum +. y.sum;
            max_value = Float.max x.max_value y.max_value;
          }
    | _ -> invalid_arg "Obs.Snapshot.merge: instrument kinds differ"

  let merge a b =
    let rec go xs ys =
      match xs, ys with
      | [], rest | rest, [] -> rest
      | x :: xs', y :: ys' ->
          let c = compare (key x) (key y) in
          if c < 0 then x :: go xs' ys
          else if c > 0 then y :: go xs ys'
          else { x with value = merge_value x.value y.value } :: go xs' ys'
    in
    { at = Float.max a.at b.at; entries = go a.entries b.entries }

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
      let n = Array.length h.bounds in
      let rec go i cumulative =
        if i >= n then h.max_value
        else
          let cumulative = cumulative + h.counts.(i) in
          if Float.of_int cumulative >= rank then h.bounds.(i)
          else go (i + 1) cumulative
      in
      go 0 0
    end

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

  let float_attr v = Printf.sprintf "%.6g" v

  let to_xml_string t =
    let buffer = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
    add "<metrics at=\"%s\">\n" (float_attr t.at);
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
              (float_attr v)
        | Histogram h ->
            let q p = float_attr (if h.count = 0 then 0. else quantile h p) in
            add
              "    <histogram name=\"%s\" count=\"%d\" sum=\"%s\" max=\"%s\" \
               p50=\"%s\" p95=\"%s\" p99=\"%s\">\n"
              (escape e.name) h.count (float_attr h.sum)
              (float_attr (if h.count = 0 then 0. else h.max_value))
              (q 0.5) (q 0.95) (q 0.99);
            Array.iteri
              (fun i c ->
                let le =
                  if i < Array.length h.bounds then float_attr h.bounds.(i)
                  else "+inf"
                in
                if c > 0 then add "      <bucket le=\"%s\" count=\"%d\"/>\n" le c)
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
              let counts, count, sum, max_value = Histogram.totals h in
              Snapshot.Histogram
                { Snapshot.bounds = h.Histogram.bounds; counts; count; sum; max_value }
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
          Histogram.inject
            (histogram ~buckets:h.Snapshot.bounds t ~stage name)
            ~counts:h.Snapshot.counts ~sum:h.Snapshot.sum
            ~max_value:h.Snapshot.max_value)
    s.Snapshot.entries

let reset t =
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | M_counter c -> cells_reset c
      | M_gauge g -> Gauge.set g 0.
      | M_histogram h ->
          Array.iter
            (fun counts -> Array.fill counts 0 (Array.length counts) 0)
            h.Histogram.counts;
          Array.iter
            (fun a ->
              a.(0) <- 0.;
              a.(1) <- neg_infinity)
            h.Histogram.accs)
    t.table;
  Mutex.unlock t.lock
