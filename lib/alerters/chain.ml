module Atomic = Xy_events.Atomic
module Registry = Xy_events.Registry
module Event_set = Xy_events.Event_set
module Loader = Xy_warehouse.Loader
module Meta = Xy_warehouse.Meta
module Obs = Xy_obs.Obs

type metrics = {
  m_docs : Obs.Counter.t;
  m_alerts : Obs.Counter.t;
  m_suppressed : Obs.Counter.t;
  m_deleted : Obs.Counter.t;
  m_memo_hits : Obs.Counter.t;
  m_memo_invalidated : Obs.Counter.t;
  m_detect_latency : Obs.Histogram.t;
  m_events_per_doc : Obs.Histogram.t;
}

(* The content codes a page raised when it was last read: valid while
   its signature, the alerter that read it (XML tree or HTML) and the
   set of content conditions stay the same. *)
type memo = {
  m_signature : string;
  m_xml : bool;
  m_epoch : int;
  m_codes : int list;
}

type t = {
  registry : Registry.t;
  url : Url_alerter.t;
  xml : Xml_alerter.t;
  html : Html_alerter.t;
  memo : (string, memo) Hashtbl.t;  (** by URL *)
  mutable epoch : int;  (** bumped by every content-condition change *)
  metrics : metrics;
}

let stage = "alerters"

let create ?(obs = Obs.default) registry =
  let t =
    {
      registry;
      url = Url_alerter.create registry;
      xml = Xml_alerter.create registry;
      html = Html_alerter.create registry;
      memo = Hashtbl.create 1024;
      epoch = 0;
      metrics =
        {
          m_docs = Obs.counter obs ~stage "docs";
          m_alerts = Obs.counter obs ~stage "alerts";
          m_suppressed = Obs.counter obs ~stage "suppressed_weak";
          m_deleted = Obs.counter obs ~stage "deleted_docs";
          m_memo_hits = Obs.counter obs ~stage "memo_hits";
          m_memo_invalidated = Obs.counter obs ~stage "memo_invalidated";
          m_detect_latency = Obs.histogram obs ~stage "detect_latency";
          m_events_per_doc = Obs.histogram obs ~stage "events_per_doc";
        };
    }
  in
  (* URL conditions are detected on every fetch and never memoized, so
     only a content condition coming or going invalidates the memo. *)
  Registry.on_change registry (function
    | `Added (_, condition) | `Removed (_, condition) ->
        if Atomic.alerter condition <> Atomic.Url_kind then
          t.epoch <- t.epoch + 1);
  t

let status_of_loader = function
  | Loader.New -> Atomic.New
  | Loader.Unchanged -> Atomic.Unchanged
  | Loader.Updated -> Atomic.Updated

let has_strong t codes =
  List.exists
    (fun code ->
      match Registry.condition t.registry code with
      | Some condition -> not (Atomic.is_weak condition)
      | None -> false)
    codes

let assemble t ~meta ~status ~url_codes ~content_codes ~matched =
  let codes = List.sort_uniq compare (List.rev_append url_codes content_codes) in
  Obs.Histogram.observe t.metrics.m_events_per_doc
    (float_of_int (List.length codes));
  if codes = [] || not (has_strong t codes) then begin
    Obs.Counter.incr t.metrics.m_suppressed;
    None
  end
  else begin
    Obs.Counter.incr t.metrics.m_alerts;
    Some (Alert.build ~meta ~status ~matched (Event_set.of_list codes))
  end

(* Current-content detection: the XML alerter over the stored tree, or
   for pages without one a lenient DOM parse and the same detection
   plus the lightweight keyword pass.  Both depend on the content and
   the content conditions only, so an unchanged page reuses its memo. *)
let content_codes t (meta : Meta.t) ~tree ~content =
  let xml = tree <> None in
  let same_page m = m.m_xml = xml && String.equal m.m_signature meta.signature in
  match Hashtbl.find_opt t.memo meta.url with
  | Some m when same_page m && m.m_epoch = t.epoch ->
      Obs.Counter.incr t.metrics.m_memo_hits;
      m.m_codes
  | previous ->
      if Option.fold ~none:false ~some:same_page previous then
        Obs.Counter.incr t.metrics.m_memo_invalidated;
      let codes =
        match tree with
        | Some tree -> Xml_alerter.detect_tree t.xml (Xy_xml.Xid.strip tree)
        | None ->
            List.rev_append
              (Html_alerter.detect t.html ~content)
              (Xml_alerter.detect_tree t.xml (Xy_xml.Html.parse content))
      in
      Hashtbl.replace t.memo meta.url
        { m_signature = meta.signature; m_xml = xml; m_epoch = t.epoch;
          m_codes = codes };
      codes

let process ?trace t ~result ~content =
  Obs.Counter.incr t.metrics.m_docs;
  Xy_trace.Trace.wrap trace ~stage ~name:"detect" @@ fun () ->
  Obs.Histogram.time t.metrics.m_detect_latency (fun () ->
      let meta = result.Loader.meta in
      let status = status_of_loader result.Loader.status in
      let url_codes = Url_alerter.detect t.url ~meta ~status in
      let current = content_codes t meta ~tree:result.Loader.tree ~content in
      let content_codes, matched =
        match result.Loader.delta with
        | [] -> (current, [])
        | _ ->
            let changes = Xml_alerter.detect_delta t.xml ~result in
            ( List.rev_append changes.Xml_alerter.codes current,
              changes.Xml_alerter.data )
      in
      assemble t ~meta ~status ~url_codes ~content_codes ~matched)

let process_deleted ?trace t ~meta ~tree =
  Obs.Counter.incr t.metrics.m_deleted;
  Hashtbl.remove t.memo meta.Meta.url;
  Xy_trace.Trace.wrap trace ~stage ~name:"detect_deleted" @@ fun () ->
  Obs.Histogram.time t.metrics.m_detect_latency (fun () ->
      let status = Atomic.Deleted in
      let url_codes = Url_alerter.detect t.url ~meta ~status in
      let content_codes, matched =
        match tree with
        | Some tree ->
            let detection = Xml_alerter.detect_deleted t.xml ~tree in
            (detection.Xml_alerter.codes, detection.Xml_alerter.data)
        | None -> ([], [])
      in
      assemble t ~meta ~status ~url_codes ~content_codes ~matched)
