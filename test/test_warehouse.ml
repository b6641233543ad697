(* Tests for xy_warehouse: metadata, domain classification, versioned
   store and the loading pipeline. *)

module Meta = Xy_warehouse.Meta
module Domains = Xy_warehouse.Domains
module Store = Xy_warehouse.Store
module Loader = Xy_warehouse.Loader
module Clock = Xy_util.Clock
module T = Xy_xml.Types

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_so = Alcotest.(check (option string))

let fresh () =
  let clock = Clock.create () in
  let store = Store.create () in
  let domains = Domains.create () in
  let loader = Loader.create ~domains ~store ~clock () in
  (clock, store, domains, loader)

(* ------------------------------------------------------------------ *)
(* Meta *)

let test_filename () =
  checks "tail" "index.html" (Meta.filename "http://x.org/a/index.html");
  checks "no slash" "plain" (Meta.filename "plain");
  checks "trailing slash" "" (Meta.filename "http://x.org/dir/")

(* ------------------------------------------------------------------ *)
(* Domains *)

let test_domains_by_dtd () =
  let d = Domains.create () in
  Domains.register_dtd d ~dtd:"http://biology.org/bio.dtd" ~domain:"biology";
  check_so "dtd wins" (Some "biology")
    (Domains.classify d ~url:"http://any/" ~dtd:(Some "http://biology.org/bio.dtd")
       ~tags:[]);
  check_so "unknown dtd" None
    (Domains.classify d ~url:"http://any/" ~dtd:(Some "http://other/") ~tags:[])

let test_domains_by_keyword () =
  let d = Domains.create () in
  Domains.register_keyword d ~keyword:"painting" ~domain:"culture";
  Domains.register_keyword d ~keyword:"catalog" ~domain:"commerce";
  check_so "tag keyword" (Some "culture")
    (Domains.classify d ~url:"http://x/" ~dtd:None ~tags:[ "museum"; "painting" ]);
  check_so "url keyword" (Some "commerce")
    (Domains.classify d ~url:"http://shop.com/catalog/items.xml" ~dtd:None ~tags:[])

let test_domains_priority () =
  let d = Domains.create () in
  Domains.register_dtd d ~dtd:"D" ~domain:"from-dtd";
  Domains.register_keyword d ~keyword:"t" ~domain:"from-tag";
  check_so "dtd beats keyword" (Some "from-dtd")
    (Domains.classify d ~url:"u" ~dtd:(Some "D") ~tags:[ "t" ])

let test_domains_listing () =
  let d = Domains.create () in
  Domains.register_dtd d ~dtd:"a" ~domain:"x";
  Domains.register_keyword d ~keyword:"b" ~domain:"y";
  Alcotest.(check (list string)) "domains" [ "x"; "y" ] (Domains.domains d)

(* ------------------------------------------------------------------ *)
(* Loader: first sight *)

let test_load_new_xml () =
  let clock, store, _, loader = fresh () in
  Clock.advance clock 100.;
  let r =
    Loader.load loader ~url:"http://a/cat.xml"
      ~content:"<catalog><product>tv</product></catalog>" ~kind:Loader.Xml
  in
  checkb "new" true (r.Loader.status = Loader.New);
  checki "version 1" 1 r.Loader.meta.Meta.version;
  checkb "xml kind" true (r.Loader.meta.Meta.kind = Meta.Xml_doc);
  checkb "tree stored" true (r.Loader.tree <> None);
  checkb "accessed now" true (r.Loader.meta.Meta.last_accessed = 100.);
  checki "store size" 1 (Store.document_count store)

let test_load_unchanged () =
  let clock, _, _, loader = fresh () in
  let content = "<a>same</a>" in
  ignore (Loader.load loader ~url:"u" ~content ~kind:Loader.Xml);
  Clock.advance clock 50.;
  let r = Loader.load loader ~url:"u" ~content ~kind:Loader.Xml in
  checkb "unchanged" true (r.Loader.status = Loader.Unchanged);
  checki "version stays" 1 r.Loader.meta.Meta.version;
  checkb "delta empty" true (r.Loader.delta = []);
  checkb "access refreshed" true (r.Loader.meta.Meta.last_accessed = 50.);
  checkb "update date kept" true (r.Loader.meta.Meta.last_updated = 0.)

let test_load_updated_with_delta () =
  let clock, _, _, loader = fresh () in
  ignore
    (Loader.load loader ~url:"u" ~content:"<c><p>tv</p></c>" ~kind:Loader.Xml);
  Clock.advance clock 10.;
  let r =
    Loader.load loader ~url:"u" ~content:"<c><p>tv</p><p>cam</p></c>"
      ~kind:Loader.Xml
  in
  checkb "updated" true (r.Loader.status = Loader.Updated);
  checki "version bumped" 2 r.Loader.meta.Meta.version;
  checkb "delta nonempty" false (r.Loader.delta = []);
  checkb "update date" true (r.Loader.meta.Meta.last_updated = 10.)

let test_load_html () =
  let _, _, _, loader = fresh () in
  let r =
    Loader.load loader ~url:"http://h/p.html"
      ~content:"<html><body>Hello</body></html>" ~kind:Loader.Html
  in
  checkb "html kind" true (r.Loader.meta.Meta.kind = Meta.Html_doc);
  checkb "no tree" true (r.Loader.tree = None);
  checkb "no doc" true (r.Loader.doc = None)

let test_load_html_change_by_signature () =
  let _, _, _, loader = fresh () in
  ignore (Loader.load loader ~url:"u" ~content:"<html>v1</html>" ~kind:Loader.Html);
  let r = Loader.load loader ~url:"u" ~content:"<html>v2</html>" ~kind:Loader.Html in
  checkb "signature change detected" true (r.Loader.status = Loader.Updated);
  checkb "still no tree" true (r.Loader.tree = None)

let test_load_auto_detection () =
  let _, _, _, loader = fresh () in
  let xml = Loader.load loader ~url:"a" ~content:"<doc><x/></doc>" ~kind:Loader.Auto in
  checkb "xml detected" true (xml.Loader.doc <> None);
  let html =
    Loader.load loader ~url:"b" ~content:"<HTML><body>x</body></HTML>"
      ~kind:Loader.Auto
  in
  checkb "html detected" true (html.Loader.doc = None);
  let broken =
    Loader.load loader ~url:"c" ~content:"<a><b></a>" ~kind:Loader.Auto
  in
  checkb "malformed falls back to html" true (broken.Loader.doc = None)

let test_load_rejects_bad_xml () =
  let _, _, _, loader = fresh () in
  match Loader.load loader ~url:"u" ~content:"<a><b></a>" ~kind:Loader.Xml with
  | exception Loader.Rejected _ -> ()
  | _ -> Alcotest.fail "expected Rejected"

let test_load_classifies_domain () =
  let _, _, domains, loader = fresh () in
  Domains.register_keyword domains ~keyword:"painting" ~domain:"culture";
  let r =
    Loader.load loader ~url:"http://m/x.xml"
      ~content:"<museum><painting/></museum>" ~kind:Loader.Xml
  in
  check_so "classified" (Some "culture") r.Loader.meta.Meta.domain

let test_docids_stable_dtdids_shared () =
  let _, _, _, loader = fresh () in
  let r1 =
    Loader.load loader ~url:"a"
      ~content:"<!DOCTYPE c SYSTEM \"http://d/c.dtd\"><c>1</c>" ~kind:Loader.Xml
  in
  let r2 =
    Loader.load loader ~url:"b"
      ~content:"<!DOCTYPE c SYSTEM \"http://d/c.dtd\"><c>2</c>" ~kind:Loader.Xml
  in
  let r1bis =
    Loader.load loader ~url:"a"
      ~content:"<!DOCTYPE c SYSTEM \"http://d/c.dtd\"><c>3</c>" ~kind:Loader.Xml
  in
  checkb "distinct docids" true (r1.Loader.meta.Meta.docid <> r2.Loader.meta.Meta.docid);
  checki "docid stable" r1.Loader.meta.Meta.docid r1bis.Loader.meta.Meta.docid;
  Alcotest.(check (option int)) "same dtdid" r1.Loader.meta.Meta.dtdid
    r2.Loader.meta.Meta.dtdid

let test_loader_validate () =
  let _, _, _, loader = fresh () in
  let conforming =
    Loader.load loader ~url:"a"
      ~content:
        {|<!DOCTYPE r [ <!ELEMENT r (x*)> <!ELEMENT x (#PCDATA)> ]><r><x>1</x></r>|}
      ~kind:Loader.Xml
  in
  Alcotest.(check int) "conforming" 0 (List.length (Loader.validate conforming));
  let violating =
    Loader.load loader ~url:"b"
      ~content:{|<!DOCTYPE r [ <!ELEMENT r (x*)> ]><r><y/></r>|}
      ~kind:Loader.Xml
  in
  checkb "violations reported" true (Loader.validate violating <> []);
  let html = Loader.load loader ~url:"c" ~content:"<html>x</html>" ~kind:Loader.Html in
  Alcotest.(check int) "html trivially empty" 0 (List.length (Loader.validate html))

let test_delete () =
  let _, store, _, loader = fresh () in
  ignore (Loader.load loader ~url:"u" ~content:"<a/>" ~kind:Loader.Xml);
  (match Loader.delete loader ~url:"u" with
  | Some meta -> checks "meta returned" "u" meta.Meta.url
  | None -> Alcotest.fail "expected meta");
  checkb "gone" false (Store.mem store "u");
  checkb "double delete" true (Loader.delete loader ~url:"u" = None)

(* ------------------------------------------------------------------ *)
(* Loader: unchanged pages are not parsed again *)

module Obs = Xy_obs.Obs

let fresh_counted () =
  let obs = Obs.create () in
  let clock = Clock.create () in
  let store = Store.create () in
  let domains = Domains.create () in
  Domains.register_keyword domains ~keyword:"product" ~domain:"commerce";
  let loader = Loader.create ~domains ~obs ~store ~clock () in
  (obs, clock, store, domains, loader)

let fast_loads obs =
  Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"warehouse"
    "unchanged_fast"

let same_tree a b =
  match (a, b) with
  | Some a, Some b -> a == b
  | None, None -> true
  | _ -> false

(* A full load of unchanged content keeps the stored metadata and
   tree; only the access date moves.  The fast path must return
   exactly that, and what a parse would have derived (kind, DTD,
   domain, tree) must agree with it. *)
let test_fast_path_matches_full_load () =
  let cases =
    [
      ( "xml",
        Loader.Xml,
        {|<!DOCTYPE c SYSTEM "http://d/c.dtd"><c><product>tv</product></c>|} );
      ("html", Loader.Html, "<html><body>Latest news</body></html>");
      ("auto xml", Loader.Auto, "<c><product>radio</product></c>");
      ("auto html", Loader.Auto, "<HTML><body>x</body></HTML>");
    ]
  in
  List.iter
    (fun (label, kind, content) ->
      let obs, clock, store, domains, loader = fresh_counted () in
      let url = "http://shop.example/p" in
      let first = Loader.load loader ~url ~content ~kind in
      Clock.advance clock 60.;
      let again = Loader.load loader ~url ~content ~kind in
      checki (label ^ ": served without a parse") 1 (fast_loads obs);
      checkb (label ^ ": unchanged") true (again.Loader.status = Loader.Unchanged);
      checkb (label ^ ": stored meta, fresh access date") true
        (again.Loader.meta = { first.Loader.meta with Meta.last_accessed = 60. });
      checkb (label ^ ": stored tree") true
        (same_tree again.Loader.tree first.Loader.tree);
      checkb (label ^ ": no delta") true (again.Loader.delta = []);
      checkb (label ^ ": not parsed") true (again.Loader.doc = None);
      (match Store.find store url with
      | Some entry ->
          checkb (label ^ ": store holds the result") true
            (entry.Store.meta = again.Loader.meta
            && same_tree entry.Store.tree again.Loader.tree)
      | None -> Alcotest.failf "%s: entry missing" label);
      (* What the skipped derivation would have produced. *)
      match first.Loader.doc with
      | None -> checkb (label ^ ": html kind") true (again.Loader.meta.Meta.kind = Meta.Html_doc)
      | Some doc ->
          let dtd = Some (Xy_xml.Dtd.identifier (Xy_xml.Dtd.of_doc doc)) in
          check_so (label ^ ": dtd") dtd again.Loader.meta.Meta.dtd;
          check_so (label ^ ": domain")
            (Domains.classify domains ~url ~dtd ~tags:(T.tags doc.T.root))
            again.Loader.meta.Meta.domain;
          checkb (label ^ ": tree is the content") true
            (T.equal_element
               (Xy_xml.Xid.strip (Option.get again.Loader.tree))
               (Xy_xml.Parser.parse content).T.root))
    cases

(* The same content under another kind is read the slow way: it is
   parsed (or not) as asked, and stays unchanged with its stored
   metadata. *)
let test_fast_path_kind_change () =
  let obs, _, _, _, loader = fresh_counted () in
  let content = "<doc><x>1</x></doc>" in
  let load url kind = Loader.load loader ~url ~content ~kind in
  let html = load "h" Loader.Html in
  let h_as_xml = load "h" Loader.Xml in
  checkb "html then xml: parsed" true (h_as_xml.Loader.doc <> None);
  checkb "html then xml: unchanged" true (h_as_xml.Loader.status = Loader.Unchanged);
  checkb "html then xml: stored meta" true
    (h_as_xml.Loader.meta.Meta.kind = Meta.Html_doc
    && h_as_xml.Loader.meta.Meta.version = html.Loader.meta.Meta.version);
  let h_as_auto = load "h" Loader.Auto in
  checkb "xml-looking page stored as html, auto: parsed" true
    (h_as_auto.Loader.doc <> None);
  ignore (load "x" Loader.Xml);
  let x_as_html = load "x" Loader.Html in
  checkb "xml then html: unchanged" true (x_as_html.Loader.status = Loader.Unchanged);
  checkb "xml then html: stored tree kept" true
    (x_as_html.Loader.meta.Meta.kind = Meta.Xml_doc && x_as_html.Loader.tree <> None);
  checki "no fast load" 0 (fast_loads obs);
  ignore (load "x" Loader.Auto);
  checki "xml then auto: fast" 1 (fast_loads obs)

(* Fast loads leave the DOCID and DTDID tables and the version history
   as full loads do: they allocate nothing. *)
let test_fast_path_store_state () =
  let obs, clock, store, _, loader = fresh_counted () in
  let page dtd body =
    Printf.sprintf {|<!DOCTYPE c SYSTEM "http://d/%s.dtd"><c>%s</c>|} dtd body
  in
  let a1 = Loader.load loader ~url:"a" ~content:(page "one" "1") ~kind:Loader.Xml in
  let a2 = Loader.load loader ~url:"a" ~content:(page "one" "2") ~kind:Loader.Xml in
  for i = 1 to 3 do
    Clock.advance clock 10.;
    let again =
      Loader.load loader ~url:"a" ~content:(page "one" "2") ~kind:Loader.Xml
    in
    checkb (Printf.sprintf "refetch %d unchanged" i) true
      (again.Loader.meta = { a2.Loader.meta with Meta.last_accessed = Clock.now clock })
  done;
  checki "three fast loads" 3 (fast_loads obs);
  let b = Loader.load loader ~url:"b" ~content:(page "two" "1") ~kind:Loader.Xml in
  Alcotest.(check (option int)) "a keeps dtdid 1" (Some 1) a2.Loader.meta.Meta.dtdid;
  Alcotest.(check (option int)) "next dtd gets 2" (Some 2) b.Loader.meta.Meta.dtdid;
  checki "dtd table: one" 1 (Store.allocate_dtdid store ~dtd:"http://d/one.dtd");
  checki "docid stable" a1.Loader.meta.Meta.docid
    (Store.allocate_docid store ~url:"a");
  checki "next docid" (b.Loader.meta.Meta.docid + 1)
    (Store.allocate_docid store ~url:"c");
  checki "documents" 2 (Store.document_count store)

(* ------------------------------------------------------------------ *)
(* Snapshot pieces *)

(* A checkpoint writes the store's section from pieces that reuse each
   document's fields while its entry is physically the same, and its
   print while its tree is.  Across loads that keep the tree and loads
   that replace it, the joined pieces must equal what a store decoded
   from them encodes, and that store must hold the same metadata and
   trees. *)
let test_snapshot_pieces () =
  let clock, store, _, loader = fresh () in
  let load url content kind = ignore (Loader.load loader ~url ~content ~kind) in
  let printed s url =
    Option.map
      (fun e ->
        Option.map
          (fun tree -> Xy_xml.Printer.element_to_string (Xy_xml.Xid.strip tree))
          e.Store.tree)
      (Store.find s url)
  in
  let check label =
    let joined = String.concat "" (Store.snapshot_pieces store) in
    let decoded = Store.create () in
    Store.decode_snapshot decoded joined;
    checks (label ^ ": pieces = decoded encoding")
      (Store.encode_snapshot decoded) joined;
    List.iter
      (fun url ->
        let meta s = Option.map (fun e -> e.Store.meta) (Store.find s url) in
        checkb (label ^ ": meta of " ^ url) true (meta store = meta decoded);
        Alcotest.(check (option (option string)))
          (label ^ ": tree of " ^ url) (printed store url) (printed decoded url))
      [ "a"; "b"; "h" ]
  in
  load "a" "<a>1</a>" Loader.Xml;
  load "b" "<b><c/></b>" Loader.Xml;
  load "h" "<html><body>page</body></html>" Loader.Html;
  check "first loads";
  Clock.advance clock 10.;
  load "a" "<a>1</a>" Loader.Xml;
  check "a load that keeps the tree";
  load "b" "<b><c/><d>new</d></b>" Loader.Xml;
  check "a load that replaces the tree";
  Clock.advance clock 10.;
  load "a" "<a>2</a>" Loader.Xml;
  load "b" "<b><c/><d>new</d></b>" Loader.Xml;
  check "both kinds again"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "warehouse"
    [
      ("meta", [ tc "filename" test_filename ]);
      ( "domains",
        [
          tc "by dtd" test_domains_by_dtd;
          tc "by keyword" test_domains_by_keyword;
          tc "dtd priority" test_domains_priority;
          tc "listing" test_domains_listing;
        ] );
      ( "loader",
        [
          tc "new xml" test_load_new_xml;
          tc "unchanged" test_load_unchanged;
          tc "updated with delta" test_load_updated_with_delta;
          tc "html" test_load_html;
          tc "html signature change" test_load_html_change_by_signature;
          tc "auto kind detection" test_load_auto_detection;
          tc "bad xml rejected" test_load_rejects_bad_xml;
          tc "domain classification" test_load_classifies_domain;
          tc "docids and dtdids" test_docids_stable_dtdids_shared;
          tc "dtd validation" test_loader_validate;
          tc "delete" test_delete;
        ] );
      ( "fast path",
        [
          tc "unchanged = full load" test_fast_path_matches_full_load;
          tc "kind change takes the full path" test_fast_path_kind_change;
          tc "store and dtdid state" test_fast_path_store_state;
        ] );
      ("snapshot", [ tc "pieces equal the decoded encoding" test_snapshot_pieces ]);
    ]
