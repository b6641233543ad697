type status = New | Unchanged | Updated

type result = {
  meta : Meta.t;
  status : status;
  doc : Xy_xml.Types.doc option;
  tree : Xy_xml.Xid.tree option;
  delta : Xy_diff.Delta.t;
}

module Obs = Xy_obs.Obs

type metrics = {
  m_new : Obs.Counter.t;
  m_updated : Obs.Counter.t;
  m_unchanged : Obs.Counter.t;
  m_fast : Obs.Counter.t;
  m_deleted : Obs.Counter.t;
  m_rejected : Obs.Counter.t;
  m_load_latency : Obs.Histogram.t;
}

type t = {
  store : Store.t;
  domains : Domains.t;
  clock : Xy_util.Clock.t;
  metrics : metrics;
}

let stage = "warehouse"

let create ?domains ?(obs = Obs.default) ~store ~clock () =
  let domains = match domains with Some d -> d | None -> Domains.create () in
  {
    store;
    domains;
    clock;
    metrics =
      {
        m_new = Obs.counter obs ~stage "loaded_new";
        m_updated = Obs.counter obs ~stage "loaded_updated";
        m_unchanged = Obs.counter obs ~stage "loaded_unchanged";
        m_fast = Obs.counter obs ~stage "unchanged_fast";
        m_deleted = Obs.counter obs ~stage "deleted";
        m_rejected = Obs.counter obs ~stage "rejected";
        m_load_latency = Obs.histogram obs ~stage "load_latency";
      };
  }

let store t = t.store
let domains t = t.domains

type content_kind = Xml | Html | Auto

exception Rejected of string

let looks_like_xml content =
  let content = String.trim content in
  String.length content > 0
  && content.[0] = '<'
  && not
       (String.length content >= 5
       && String.lowercase_ascii (String.sub content 0 5) = "<html")

let parse_xml ~strict content =
  match Xy_xml.Parser.parse content with
  | doc -> Some doc
  | exception Xy_xml.Parser.Error { line; column; message } ->
      if strict then
        raise
          (Rejected (Printf.sprintf "line %d, column %d: %s" line column message))
      else None

(* Whether loading [content] as [kind] reads it the way the stored
   entry with the same signature was read.  [Xml] and [Html] name the
   stored kind outright.  [Auto] re-derives it from the content, except
   for an XML-looking page stored as HTML: it may have failed to parse
   or have been loaded as [Html], and only a parse can tell. *)
let kind_agrees kind ~content (stored : Meta.kind) =
  match (kind, stored) with
  | Xml, Meta.Xml_doc | Html, Meta.Html_doc -> true
  | Auto, Meta.Xml_doc -> looks_like_xml content
  | Auto, Meta.Html_doc -> not (looks_like_xml content)
  | Xml, Meta.Html_doc | Html, Meta.Xml_doc -> false

(* Same content: refresh the access date only. *)
let unchanged t old_entry ~now ~doc =
  let meta = { old_entry.Store.meta with Meta.last_accessed = now } in
  Store.put t.store { Store.meta; tree = old_entry.Store.tree };
  Obs.Counter.incr t.metrics.m_unchanged;
  { meta; status = Unchanged; doc; tree = old_entry.Store.tree; delta = [] }

let load_full t ~url ~content ~kind ~now ~signature ~previous =
  let doc =
    try
      match kind with
      | Xml -> parse_xml ~strict:true content
      | Html -> None
      | Auto ->
          if looks_like_xml content then parse_xml ~strict:false content
          else None
    with Rejected _ as e ->
      Obs.Counter.incr t.metrics.m_rejected;
      raise e
  in
  let docid = Store.allocate_docid t.store ~url in
  let dtd = Option.map (fun d -> Xy_xml.Dtd.identifier (Xy_xml.Dtd.of_doc d)) doc in
  let dtdid = Option.map (fun d -> Store.allocate_dtdid t.store ~dtd:d) dtd in
  let tags =
    match doc with Some d -> Xy_xml.Types.tags d.Xy_xml.Types.root | None -> []
  in
  let domain = Domains.classify t.domains ~url ~dtd ~tags in
  let meta_kind =
    match doc with Some _ -> Meta.Xml_doc | None -> Meta.Html_doc
  in
  match previous with
  | None ->
      (* First sight of this page. *)
      let tree =
        match doc with
        | Some d ->
            Some (Xy_xml.Xid.label (Store.gen t.store ~url) d.Xy_xml.Types.root)
        | None -> None
      in
      let meta =
        {
          Meta.url;
          docid;
          kind = meta_kind;
          domain;
          dtd;
          dtdid;
          signature;
          last_accessed = now;
          last_updated = now;
          version = 1;
        }
      in
      Store.put t.store { Store.meta; tree };
      Obs.Counter.incr t.metrics.m_new;
      { meta; status = New; doc; tree; delta = [] }
  | Some old_entry ->
      let old_meta = old_entry.Store.meta in
      if old_meta.Meta.signature = signature then
        unchanged t old_entry ~now ~doc
      else begin
        let delta, tree =
          match doc, old_entry.Store.tree with
          | Some d, Some old_tree ->
              let delta, new_tree =
                Xy_diff.Diff.diff ~gen:(Store.gen t.store ~url) old_tree
                  d.Xy_xml.Types.root
              in
              (delta, Some new_tree)
          | Some d, None ->
              (* Was HTML (or unparsed), now XML: start a lineage. *)
              ( [],
                Some (Xy_xml.Xid.label (Store.gen t.store ~url) d.Xy_xml.Types.root)
              )
          | None, _ -> ([], None)
        in
        let meta =
          {
            old_meta with
            Meta.kind = meta_kind;
            domain;
            dtd;
            dtdid;
            signature;
            last_accessed = now;
            last_updated = now;
            version = old_meta.Meta.version + 1;
          }
        in
        Store.put t.store { Store.meta; tree };
        Obs.Counter.incr t.metrics.m_updated;
        { meta; status = Updated; doc; tree; delta }
      end

(* The signature is compared before anything is parsed: an unchanged
   page read as its stored kind already has its meta (DTD, DTDID,
   domain) and tree in the store, so neither the parse nor their
   derivation can change the outcome. *)
let load t ~url ~content ~kind =
  Obs.Histogram.time t.metrics.m_load_latency @@ fun () ->
  let now = Xy_util.Clock.now t.clock in
  let signature = Xy_util.Hashing.signature content in
  let previous = Store.find t.store url in
  match previous with
  | Some old_entry
    when String.equal old_entry.Store.meta.Meta.signature signature
         && kind_agrees kind ~content old_entry.Store.meta.Meta.kind ->
      Obs.Counter.incr t.metrics.m_fast;
      unchanged t old_entry ~now ~doc:None
  | _ -> load_full t ~url ~content ~kind ~now ~signature ~previous

let validate result =
  match result.doc with
  | None -> []
  | Some doc ->
      Xy_xml.Dtd.validate
        (Xy_xml.Dtd.declarations_of_doc doc)
        doc.Xy_xml.Types.root

let delete t ~url =
  match Store.find t.store url with
  | None -> None
  | Some entry ->
      Store.remove t.store ~url;
      Obs.Counter.incr t.metrics.m_deleted;
      Some entry.Store.meta
