(* The load generator's inputs, all derived from the benchmark's
   [--seed]: the synthetic web, the subscription texts, the churn
   schedule and the document stream.  The system under test sees only
   these generated inputs; its own [~seed] stays a constant. *)

module Web = Xy_crawler.Synthetic_web
module Loader = Xy_warehouse.Loader
module Xyleme = Xy_system.Xyleme

type sizes = { sites : int; pages_per_site : int; subscriptions : int }

(* 300 sites x 6 pages and 2x10^4 subscriptions at scale 1. *)
let sizes ~scale =
  let scaled n = max 1 (int_of_float (Float.round (float_of_int n *. scale))) in
  { sites = max 4 (scaled 300); pages_per_site = 6; subscriptions = scaled 20_000 }

let web ~seed sizes =
  Web.generate ~seed ~sites:sizes.sites ~pages_per_site:sizes.pages_per_site ()

(* The synthetic web's product vocabulary: catalog descriptions, museum
   titles and news text all draw from it, so every word can match. *)
let words =
  [|
    "camera"; "television"; "radio"; "laptop"; "phone"; "speaker"; "electronic";
    "digital"; "wireless"; "portable"; "compact"; "professional"; "battery";
    "screen"; "hifi"; "stereo"; "lens"; "tripod"; "charger"; "cable";
  |]

(* Which site a subscription watches.  Popularity is Zipf (s = 1) over
   ranks, and rank r is always a site of kind r mod 4 (the web cycles
   catalog, members, museum, news), with the sites of one kind shuffled
   by the seed.  The hottest site is a catalog under every seed, so the
   seed changes the content of the load but not its shape.  Every
   subscription is scoped to one site: an unscoped commerce query
   matches a large share of all subscriptions on each document. *)
type popularity = { cumulative : float array; site_of_rank : int array }

let popularity rng ~sites =
  let by_kind =
    Array.init 4 (fun k ->
        let members =
          Array.of_list (List.filter (fun s -> s mod 4 = k) (List.init sites Fun.id))
        in
        for i = Array.length members - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = members.(i) in
          members.(i) <- members.(j);
          members.(j) <- x
        done;
        members)
  in
  let site_of_rank = Array.init sites (fun r -> by_kind.(r mod 4).(r / 4)) in
  let total = ref 0. in
  let cumulative =
    Array.init sites (fun r ->
        total := !total +. (1. /. float_of_int (r + 1));
        !total)
  in
  { cumulative = Array.map (fun c -> c /. !total) cumulative; site_of_rank }

let pick_site p rng =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length p.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.cumulative.(mid) < u then lo := mid + 1 else hi := mid
  done;
  p.site_of_rank.(!lo)

(* Subscription texts.  [monitor] adds the serving-surface mix: 2% of
   the subscriptions report immediately and the first 20 also carry a
   daily continuous query over the warehouse. *)
type subscriptions = {
  rng : Random.State.t;
  popularity : popularity;
  monitor : bool;
  mutable next : int;
}

let subscriptions ~seed ~monitor sizes =
  let rng = Random.State.make [| seed; 1 |] in
  { rng; popularity = popularity rng ~sites:sizes.sites; monitor; next = 0 }

let owner i = Printf.sprintf "c%d" (i mod 2)
let name i = Printf.sprintf "S%d" i

(* The text of subscription [i], drawn fresh: an update of [i] calls it
   again and gets another kind, site or word under the same name. *)
let text g i =
  let rng = g.rng in
  let host =
    Printf.sprintf "http://site%d.example.org/" (pick_site g.popularity rng)
  in
  let word = words.(Random.State.int rng (Array.length words)) in
  let monitoring =
    match Random.State.int rng 4 with
    | 0 ->
        Printf.sprintf
          "select <UpdatedPage url=URL/>\nwhere URL extends \"%s\" and modified self"
          host
    | 1 ->
        Printf.sprintf
          "where new self\\\\product contains \"%s\" and URL extends \"%s\"" word
          host
    | 2 -> Printf.sprintf "where self contains \"%s\" and URL extends \"%s\"" word host
    | _ ->
        Printf.sprintf
          "where domain = \"commerce\" and modified self and self\\\\price and URL \
           extends \"%s\""
          host
  in
  let continuous =
    if g.monitor && i < 20 then
      Printf.sprintf
        "continuous Q%d\nselect p/name\nfrom commerce/catalog c, c/product p\nwhere \
         p/desc contains \"%s\"\ntry daily\n"
        i word
    else ""
  in
  let report =
    if g.monitor && Random.State.int rng 50 = 0 then "report when immediate"
    else "report when count > 20 atmost weekly"
  in
  Printf.sprintf "subscription %s\nmonitoring\n%s\n%s%s" (name i) monitoring
    continuous report

(* [fresh g] is the next new subscription: (owner, text). *)
let fresh g =
  let i = g.next in
  g.next <- i + 1;
  (owner i, text g i)

(* Subscriptions handed out so far. *)
let count g = g.next

(* The document stream: round-robin sweeps over the web's pages in
   batches of 64.  Between sweeps the system clock and the web move on
   an hour; that step runs outside the timed calls.  Two streams made
   from the same seed yield the same batches. *)
type stream = {
  s_web : Web.t;
  clock : Xy_util.Clock.t;
  mutable urls : string array;
  mutable pos : int;
  mutable sweeps : int;  (** sweeps begun *)
}

let batch_size = 64
let sweep_seconds = 3600.

let stream ~web ~clock =
  { s_web = web; clock; urls = Array.of_list (Web.urls web); pos = 0; sweeps = 1 }

let next_batch s =
  if s.pos >= Array.length s.urls then begin
    Xy_util.Clock.advance s.clock sweep_seconds;
    ignore (Web.evolve s.s_web ~elapsed:sweep_seconds);
    s.urls <- Array.of_list (Web.urls s.s_web);
    s.pos <- 0;
    s.sweeps <- s.sweeps + 1
  end;
  let stop = min (Array.length s.urls) (s.pos + batch_size) in
  let docs =
    List.filter_map
      (fun url ->
        Option.map
          (fun content ->
            {
              Xyleme.bd_url = url;
              bd_content = Some content;
              bd_kind =
                (match Web.kind_of s.s_web ~url with
                | Some Web.Html_page -> Loader.Html
                | Some Web.Xml_page | None -> Loader.Xml);
              bd_trace = None;
              bd_birth = None;
            })
          (Web.fetch s.s_web ~url))
      (Array.to_list (Array.sub s.urls s.pos (stop - s.pos)))
  in
  s.pos <- stop;
  docs
