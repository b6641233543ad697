(* Tests for xy_crawler: synthetic web generation/evolution, adaptive
   fetch scheduling, and the crawler loop. *)

module Web = Xy_crawler.Synthetic_web
module Queue = Xy_crawler.Fetch_queue
module Crawler = Xy_crawler.Crawler
module Clock = Xy_util.Clock

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Synthetic web *)

let test_web_generation () =
  let web = Web.generate ~seed:1 ~sites:4 ~pages_per_site:5 () in
  checki "page count" 20 (Web.page_count web);
  checki "urls listed" 20 (List.length (Web.urls web));
  List.iter
    (fun url ->
      match Web.fetch web ~url with
      | Some content -> checkb "non-empty content" true (String.length content > 0)
      | None -> Alcotest.fail "page must exist")
    (Web.urls web)

let test_web_deterministic () =
  let content_of seed =
    let web = Web.generate ~seed ~sites:2 ~pages_per_site:2 () in
    List.filter_map (fun url -> Web.fetch web ~url) (Web.urls web)
  in
  checkb "same seed, same web" true (content_of 7 = content_of 7);
  checkb "different seed, different web" true (content_of 7 <> content_of 8)

let test_web_xml_pages_parse () =
  let web = Web.generate ~seed:3 ~sites:4 ~pages_per_site:4 () in
  List.iter
    (fun url ->
      match Web.kind_of web ~url with
      | Some Web.Xml_page -> (
          match Xy_xml.Parser.parse (Option.get (Web.fetch web ~url)) with
          | _ -> ()
          | exception Xy_xml.Parser.Error _ ->
              Alcotest.failf "unparseable generated page %s" url)
      | Some Web.Html_page | None -> ())
    (Web.urls web)

let test_web_mutation_changes_content () =
  let web = Web.generate ~seed:5 ~sites:1 ~pages_per_site:3 () in
  let url = List.hd (Web.urls web) in
  let before = Option.get (Web.fetch web ~url) in
  Web.mutate web ~url;
  let after = Option.get (Web.fetch web ~url) in
  checkb "content changed" true (before <> after);
  (* Mutated XML still parses. *)
  match Xy_xml.Parser.parse after with
  | _ -> ()
  | exception Xy_xml.Parser.Error _ -> Alcotest.fail "mutation broke the XML"

let test_web_mutations_stay_wellformed () =
  let web = Web.generate ~seed:11 ~sites:4 ~pages_per_site:2 () in
  for _ = 1 to 200 do
    List.iter
      (fun url ->
        Web.mutate web ~url;
        match Web.kind_of web ~url with
        | Some Web.Xml_page -> (
            match Xy_xml.Parser.parse (Option.get (Web.fetch web ~url)) with
            | _ -> ()
            | exception Xy_xml.Parser.Error _ ->
                Alcotest.failf "mutation broke %s" url)
        | Some Web.Html_page | None -> ())
      (Web.urls web)
  done

let test_web_evolve () =
  let web = Web.generate ~seed:9 ~sites:4 ~pages_per_site:5 () in
  let changed = Web.evolve web ~elapsed:(30. *. 86400.) in
  checkb "a month changes many pages" true (changed > 0)

let test_web_remove () =
  let web = Web.generate ~seed:2 ~sites:1 ~pages_per_site:2 () in
  let url = List.hd (Web.urls web) in
  Web.remove web ~url;
  checkb "gone" true (Web.fetch web ~url = None);
  checki "count drops" 1 (Web.page_count web)

let test_add_catalog_product () =
  let web = Web.generate ~seed:4 ~sites:1 ~pages_per_site:1 () in
  (* site0 is a catalog site *)
  let url = List.hd (Web.urls web) in
  Web.add_catalog_product web ~url ~name:"dx-100" ~words:"a great camera";
  let content = Option.get (Web.fetch web ~url) in
  checkb "product appended" true
    (Xy_query.Eval.word_contains ~word:"camera" content)

(* ------------------------------------------------------------------ *)
(* Fetch queue *)

let test_queue_first_fetch_immediate () =
  let clock = Clock.create () in
  let queue = Queue.create ~clock () in
  Queue.add queue ~url:"a";
  Queue.add queue ~url:"b";
  Alcotest.(check (list string)) "both due" [ "a"; "b" ]
    (List.sort compare (Queue.pop_due queue ~limit:10))

let test_queue_limit () =
  let clock = Clock.create () in
  let queue = Queue.create ~clock () in
  for i = 1 to 5 do
    Queue.add queue ~url:(string_of_int i)
  done;
  checki "limit respected" 3 (List.length (Queue.pop_due queue ~limit:3))

let test_queue_adaptive_period () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:1000. ~min_period:10. ~clock () in
  Queue.add queue ~url:"u";
  ignore (Queue.pop_due queue ~limit:1);
  Queue.mark_fetched queue ~url:"u" ~changed:true;
  checkb "changed shortens" true (Queue.period queue ~url:"u" = Some 500.);
  Clock.advance clock 500.;
  ignore (Queue.pop_due queue ~limit:1);
  Queue.mark_fetched queue ~url:"u" ~changed:false;
  checkb "unchanged lengthens" true (Queue.period queue ~url:"u" = Some 750.)

let test_queue_period_bounds () =
  let clock = Clock.create () in
  let queue =
    Queue.create ~initial_period:100. ~min_period:50. ~max_period:200. ~clock ()
  in
  Queue.add queue ~url:"u";
  for _ = 1 to 10 do
    ignore (Queue.pop_due queue ~limit:1);
    Queue.mark_fetched queue ~url:"u" ~changed:true;
    Clock.advance clock 10_000.
  done;
  checkb "floor" true (Queue.period queue ~url:"u" = Some 50.);
  for _ = 1 to 20 do
    ignore (Queue.pop_due queue ~limit:1);
    Queue.mark_fetched queue ~url:"u" ~changed:false;
    Clock.advance clock 10_000.
  done;
  checkb "ceiling" true (Queue.period queue ~url:"u" = Some 200.)

let test_queue_boost_ceiling () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:86400. ~clock () in
  Queue.boost queue ~url:"u" ~period:3600.;
  (* Boost registers the url and caps its period. *)
  checkb "capped now" true (Queue.period queue ~url:"u" = Some 3600.);
  ignore (Queue.pop_due queue ~limit:1);
  Queue.mark_fetched queue ~url:"u" ~changed:false;
  checkb "cannot exceed boost ceiling" true (Queue.period queue ~url:"u" = Some 3600.)

let test_queue_boost_resurrects () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~clock () in
  Queue.add queue ~url:"u";
  Queue.forget queue ~url:"u";
  checki "forgotten" 0 (Queue.known_count queue);
  (* A subscription refresh statement re-demands the page: the dead
     entry must come back to life, not be silently dropped. *)
  Queue.boost queue ~url:"u" ~period:50.;
  checki "resurrected" 1 (Queue.known_count queue);
  Alcotest.(check (list string)) "served again" [ "u" ]
    (Queue.pop_due queue ~limit:10)

let test_queue_boost_resurrects_after_serve () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~clock () in
  Queue.add queue ~url:"u";
  ignore (Queue.pop_due queue ~limit:1);
  (* Forgotten while in flight: no heap entry is pending, so the boost
     must schedule one anew at [now + period]. *)
  Queue.forget queue ~url:"u";
  Queue.boost queue ~url:"u" ~period:50.;
  checki "resurrected" 1 (Queue.known_count queue);
  checkb "not due before the new deadline" true
    (Queue.pop_due queue ~limit:10 = []);
  Clock.advance clock 50.;
  Alcotest.(check (list string)) "rescheduled at now + period" [ "u" ]
    (Queue.pop_due queue ~limit:10)

let test_queue_boost_reschedules_pending () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:1000. ~min_period:10. ~clock () in
  Queue.add queue ~url:"u";
  ignore (Queue.pop_due queue ~limit:1);
  Queue.mark_fetched queue ~url:"u" ~changed:false;
  (* Next fetch is now + 1500; a boost down to 100 must not wait for
     that far-away deadline. *)
  Queue.boost queue ~url:"u" ~period:100.;
  checkb "not due yet" true (Queue.pop_due queue ~limit:10 = []);
  Clock.advance clock 100.;
  Alcotest.(check (list string)) "due at the boosted deadline" [ "u" ]
    (Queue.pop_due queue ~limit:10);
  Queue.mark_fetched queue ~url:"u" ~changed:false;
  (* The superseded heap entry (at now + 1400) must be skipped as
     stale, not served a second time. *)
  Clock.advance clock 1400.;
  Alcotest.(check (list string)) "stale superseded entry skipped" [ "u" ]
    (Queue.pop_due queue ~limit:10)

let test_queue_not_due_before_deadline () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~clock () in
  Queue.add queue ~url:"u";
  ignore (Queue.pop_due queue ~limit:1);
  Queue.mark_fetched queue ~url:"u" ~changed:false;
  checkb "nothing due" true (Queue.pop_due queue ~limit:1 = []);
  Clock.advance clock 200.;
  Alcotest.(check (list string)) "due after deadline" [ "u" ]
    (Queue.pop_due queue ~limit:1)

let test_queue_forget () =
  let clock = Clock.create () in
  let queue = Queue.create ~clock () in
  Queue.add queue ~url:"u";
  Queue.forget queue ~url:"u";
  checkb "dead entries not served" true (Queue.pop_due queue ~limit:1 = []);
  checki "not counted" 0 (Queue.known_count queue)

let test_queue_add_idempotent () =
  let clock = Clock.create () in
  let queue = Queue.create ~clock () in
  Queue.add queue ~url:"u";
  Queue.add queue ~url:"u";
  checki "once" 1 (List.length (Queue.pop_due queue ~limit:10))

(* Regression: a URL popped for fetching whose fetch then fails must
   never be lost — before [retry]/[penalize] existed the only way back
   was a subscription boost. *)
let test_queue_retry_requeues_failed_pop () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~clock () in
  Queue.add queue ~url:"u";
  Alcotest.(check (list string)) "popped" [ "u" ] (Queue.pop_due queue ~limit:1);
  (* fetch fails; transient → retry shortly, period untouched *)
  Queue.retry queue ~url:"u" ~delay:30.;
  checkb "not due before the retry delay" true (Queue.pop_due queue ~limit:1 = []);
  Clock.advance clock 30.;
  Alcotest.(check (list string)) "served again after the delay" [ "u" ]
    (Queue.pop_due queue ~limit:1);
  checkb "period untouched by retry" true (Queue.period queue ~url:"u" = Some 100.)

let test_queue_retry_noops () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~clock () in
  (* unknown url *)
  Queue.retry queue ~url:"ghost" ~delay:10.;
  checki "unknown not registered" 0 (Queue.known_count queue);
  (* dead url *)
  Queue.add queue ~url:"u";
  ignore (Queue.pop_due queue ~limit:1);
  Queue.forget queue ~url:"u";
  Queue.retry queue ~url:"u" ~delay:10.;
  Clock.advance clock 10.;
  checkb "dead not resurrected" true (Queue.pop_due queue ~limit:10 = []);
  (* already-queued url: retry must not double-schedule *)
  Queue.add queue ~url:"v";
  Queue.retry queue ~url:"v" ~delay:0.;
  checki "queued url served once" 1 (List.length (Queue.pop_due queue ~limit:10))

let test_queue_penalize_demotes () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~max_period:1000. ~clock () in
  Queue.add queue ~url:"u";
  ignore (Queue.pop_due queue ~limit:1);
  (* retries exhausted: demoted, not dropped *)
  Queue.penalize queue ~url:"u" ~factor:2.;
  checkb "period doubled" true (Queue.period queue ~url:"u" = Some 200.);
  checkb "not due before the demoted period" true (Queue.pop_due queue ~limit:1 = []);
  Clock.advance clock 200.;
  Alcotest.(check (list string)) "still scheduled, one period away" [ "u" ]
    (Queue.pop_due queue ~limit:1);
  checkb "factor below one rejected" true
    (match Queue.penalize queue ~url:"u" ~factor:0.5 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_queue_penalize_respects_bounds () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~max_period:300. ~clock () in
  Queue.add queue ~url:"u";
  for _ = 1 to 5 do
    ignore (Queue.pop_due queue ~limit:1);
    Queue.penalize queue ~url:"u" ~factor:4.;
    Clock.advance clock 10_000.
  done;
  checkb "demotion clamped to max period" true
    (Queue.period queue ~url:"u" = Some 300.);
  (* a subscription boost ceiling still caps a later demotion *)
  Queue.boost queue ~url:"u" ~period:50.;
  ignore (Queue.pop_due queue ~limit:1);
  Queue.penalize queue ~url:"u" ~factor:4.;
  checkb "boost ceiling caps demotion" true
    (Queue.period queue ~url:"u" = Some 50.)

(* The snapshot lists entries in [String.compare] order of their URLs,
   whatever order they were added in, and decoding it into a fresh
   queue re-encodes the same bytes. *)
let test_queue_snapshot_order () =
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~clock () in
  let urls =
    List.init 40 (fun i ->
        Printf.sprintf "http://%s.example.org/%s%d"
          (if i mod 3 = 0 then "Site" else "site")
          (String.make (i mod 4) 'p') (i * 7 mod 40))
  in
  let prng = Xy_util.Prng.create ~seed:17 in
  let shuffled = Array.of_list urls in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Xy_util.Prng.int prng (i + 1) in
    let tmp = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- tmp
  done;
  Array.iter (fun url -> Queue.add queue ~url) shuffled;
  ignore (Queue.pop_due queue ~limit:5);
  let bytes = Queue.encode_snapshot queue in
  let r = Xy_util.Codec.reader bytes in
  let encoded =
    Xy_util.Codec.read_list r (fun r ->
        let url = Xy_util.Codec.read_string r in
        ignore (Xy_util.Codec.read_bool r);
        ignore (Xy_util.Codec.read_float r);
        ignore (Xy_util.Codec.read_float r);
        ignore (Xy_util.Codec.read_bool r);
        ignore (Xy_util.Codec.read_bool r);
        ignore (Xy_util.Codec.read_float r);
        url)
  in
  Xy_util.Codec.expect_end r;
  Alcotest.(check (list string))
    "entries in String.compare order"
    (List.sort_uniq String.compare urls)
    encoded;
  let copy = Queue.create ~initial_period:100. ~clock () in
  Queue.decode_snapshot copy bytes;
  Alcotest.(check string) "decode then encode: same bytes" bytes
    (Queue.encode_snapshot copy)

let test_queue_model_random () =
  (* Model-based test: the queue against a naive reference that keeps
     (url, deadline, period) in a list.  Random add/boost/fetch/advance
     sequences must agree on what is due. *)
  let clock = Clock.create () in
  let queue = Queue.create ~initial_period:100. ~min_period:10. ~max_period:1000. ~clock () in
  let model : (string, float * float * float) Hashtbl.t = Hashtbl.create 16 in
  (* url -> (deadline, period, ceiling) *)
  let prng = Xy_util.Prng.create ~seed:321 in
  let urls = Array.init 10 (fun i -> Printf.sprintf "u%d" i) in
  let clamp ceiling p = Float.min ceiling (Float.max 10. (Float.min 1000. p)) in
  for _step = 1 to 500 do
    match Xy_util.Prng.int prng 4 with
    | 0 ->
        let url = Xy_util.Prng.pick prng urls in
        Queue.add queue ~url;
        if not (Hashtbl.mem model url) then
          Hashtbl.replace model url (Clock.now clock, 100., 1000.)
    | 1 ->
        let url = Xy_util.Prng.pick prng urls in
        let period = float_of_int (10 + Xy_util.Prng.int prng 500) in
        Queue.boost queue ~url ~period;
        let deadline, p, old_ceiling =
          Option.value ~default:(Clock.now clock, 100., 1000.)
            (Hashtbl.find_opt model url)
        in
        (* boosts only tighten the ceiling *)
        let ceiling = Float.max 10. (Float.min old_ceiling period) in
        let p = clamp ceiling p in
        (* boost reschedules when the clamped period shortens the
           pending deadline *)
        let deadline = Float.min deadline (Clock.now clock +. p) in
        Hashtbl.replace model url (deadline, p, ceiling)
    | 2 ->
        (* fetch everything due, in both queue and model *)
        let due = List.sort compare (Queue.pop_due queue ~limit:100) in
        let model_due =
          Hashtbl.fold
            (fun url (deadline, _, _) acc ->
              if deadline <= Clock.now clock then url :: acc else acc)
            model []
          |> List.sort compare
        in
        Alcotest.(check (list string)) "due sets agree" model_due due;
        List.iter
          (fun url ->
            let changed = Xy_util.Prng.bool prng in
            Queue.mark_fetched queue ~url ~changed;
            let _, p, ceiling = Hashtbl.find model url in
            let p = clamp ceiling (if changed then p *. 0.5 else p *. 1.5) in
            Hashtbl.replace model url (Clock.now clock +. p, p, ceiling))
          due
    | _ -> Clock.advance clock (float_of_int (Xy_util.Prng.int prng 200))
  done

(* ------------------------------------------------------------------ *)
(* Crawler *)

let test_crawler_loop () =
  let clock = Clock.create () in
  let web = Web.generate ~seed:1 ~sites:2 ~pages_per_site:3 () in
  let queue = Queue.create ~clock () in
  let crawler = Crawler.create ~web ~queue () in
  Crawler.discover crawler;
  let fetches = Crawler.step crawler ~limit:100 in
  checki "all fetched" 6 (List.length fetches);
  List.iter
    (fun f ->
      checkb "content present" true (f.Crawler.content <> None);
      Crawler.conclude crawler ~url:f.Crawler.url ~changed:false)
    fetches;
  checki "fetch counter" 6 (Crawler.fetches crawler);
  (* nothing due until deadlines pass *)
  checki "idle" 0 (List.length (Crawler.step crawler ~limit:100))

let test_crawler_missing_page () =
  let clock = Clock.create () in
  let web = Web.generate ~seed:1 ~sites:1 ~pages_per_site:2 () in
  let queue = Queue.create ~clock () in
  let crawler = Crawler.create ~web ~queue () in
  Crawler.discover crawler;
  let victim = List.hd (Web.urls web) in
  Web.remove web ~url:victim;
  let fetches = Crawler.step crawler ~limit:10 in
  let missing = List.find (fun f -> f.Crawler.url = victim) fetches in
  checkb "missing page reported" true (missing.Crawler.content = None);
  List.iter
    (fun f ->
      if f.Crawler.url <> victim then
        Crawler.conclude crawler ~url:f.Crawler.url ~changed:false)
    fetches;
  (* The dead URL never comes back. *)
  Clock.advance clock (365. *. 86400.);
  let later = Crawler.step crawler ~limit:10 in
  checkb "dead url not refetched" true
    (not (List.exists (fun f -> f.Crawler.url = victim) later))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "crawler"
    [
      ( "web",
        [
          tc "generation" test_web_generation;
          tc "deterministic" test_web_deterministic;
          tc "xml pages parse" test_web_xml_pages_parse;
          tc "mutation changes content" test_web_mutation_changes_content;
          tc "mutations stay well-formed" test_web_mutations_stay_wellformed;
          tc "evolve" test_web_evolve;
          tc "remove" test_web_remove;
          tc "add catalog product" test_add_catalog_product;
        ] );
      ( "queue",
        [
          tc "first fetch immediate" test_queue_first_fetch_immediate;
          tc "limit" test_queue_limit;
          tc "adaptive period" test_queue_adaptive_period;
          tc "period bounds" test_queue_period_bounds;
          tc "boost ceiling" test_queue_boost_ceiling;
          tc "boost resurrects forgotten url" test_queue_boost_resurrects;
          tc "boost resurrects after serve" test_queue_boost_resurrects_after_serve;
          tc "boost reschedules pending deadline" test_queue_boost_reschedules_pending;
          tc "deadline" test_queue_not_due_before_deadline;
          tc "forget" test_queue_forget;
          tc "add idempotent" test_queue_add_idempotent;
          tc "retry requeues a failed pop" test_queue_retry_requeues_failed_pop;
          tc "retry no-ops" test_queue_retry_noops;
          tc "penalize demotes, never drops" test_queue_penalize_demotes;
          tc "penalize respects bounds" test_queue_penalize_respects_bounds;
          tc "model-based random" test_queue_model_random;
          tc "snapshot in URL order" test_queue_snapshot_order;
        ] );
      ( "crawler",
        [
          tc "loop" test_crawler_loop;
          tc "missing page" test_crawler_missing_page;
        ] );
    ]
