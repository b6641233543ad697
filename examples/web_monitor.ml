(* Web monitoring at (scaled) system size: the full pipeline —
   synthetic web, crawler with adaptive refresh, loader, alerters,
   Monitoring Query Processor, trigger engine, reporter — running for
   a simulated month with hundreds of subscriptions.

   Run with:  dune exec examples/web_monitor.exe -- [--sites N] [--days D] *)

module Xyleme = Xy_system.Xyleme
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Clock = Xy_util.Clock

let () =
  let sites = ref 12 and days = ref 30. and subscriptions = ref 200 in
  let rec parse_args = function
    | "--sites" :: n :: rest ->
        sites := int_of_string n;
        parse_args rest
    | "--days" :: d :: rest ->
        days := float_of_string d;
        parse_args rest
    | "--subscriptions" :: n :: rest ->
        subscriptions := int_of_string n;
        parse_args rest
    | _ :: rest -> parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));

  let web = Web.generate ~seed:2026 ~sites:!sites ~pages_per_site:8 () in
  let sink, delivered = Sink.counting () in
  let xyleme = Xyleme.create ~seed:7 ~sink ~web () in

  (* A population of subscriptions over the synthetic sites: page
     watchers, product watchers, domain watchers. *)
  let accepted = ref 0 in
  for i = 0 to !subscriptions - 1 do
    let site = i mod !sites in
    let text =
      match i mod 3 with
      | 0 ->
          Printf.sprintf
            {|subscription PageWatch%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 5 atmost daily|}
            i site
      | 1 ->
          Printf.sprintf
            {|subscription ProductWatch%d
monitoring
where new self\\product contains "camera"
  and URL extends "http://site%d.example.org/"
report when immediate|}
            i site
      | _ ->
          Printf.sprintf
            {|subscription DomainWatch%d
monitoring
where domain = "commerce" and modified self and self\\price
report when count > 10 atmost weekly|}
            i
    in
    match Xyleme.subscribe xyleme ~owner:(Printf.sprintf "user%d@example.org" i) ~text with
    | Ok _ -> incr accepted
    | Error e ->
        Printf.printf "subscription %d rejected: %s\n" i
          (Xy_submgr.Manager.error_to_string e)
  done;
  Printf.printf "installed %d subscriptions over %d sites\n%!" !accepted !sites;

  (* Crawl for a simulated month, reporting weekly progress: [run]'s
     [days] is the total so far, so each week runs to its end. *)
  let weeks = int_of_float (ceil (!days /. 7.)) in
  let wall_start = Unix.gettimeofday () in
  for week = 1 to weeks do
    Xyleme.run xyleme
      ~days:(7. *. float_of_int week)
      ~step:(6. *. 3600.) ~fetch_limit:500;
    let stats = Xyleme.stats xyleme in
    Printf.printf
      "week %d: fetched=%d stored=%d alerts=%d notifications=%d reports=%d\n%!"
      week stats.Xyleme.documents_fetched stats.Xyleme.documents_stored
      stats.Xyleme.alerts_sent stats.Xyleme.notifications stats.Xyleme.reports
  done;
  let wall = Unix.gettimeofday () -. wall_start in

  let stats = Xyleme.stats xyleme in
  Printf.printf "\nafter %.0f simulated days (%.2fs wall clock):\n" !days wall;
  Printf.printf "  pages on the web        : %d\n" (Web.page_count web);
  Printf.printf "  documents fetched       : %d\n" stats.Xyleme.documents_fetched;
  Printf.printf "  documents warehoused    : %d\n" stats.Xyleme.documents_stored;
  Printf.printf "  atomic events (Card A)  : %d\n" stats.Xyleme.atomic_events;
  Printf.printf "  complex events (Card C) : %d\n" stats.Xyleme.complex_events;
  Printf.printf "  alerts to the MQP       : %d\n" stats.Xyleme.alerts_sent;
  Printf.printf "  notifications emitted   : %d\n" stats.Xyleme.notifications;
  Printf.printf "  reports delivered       : %d (%d recipients reached)\n"
    stats.Xyleme.reports !delivered
