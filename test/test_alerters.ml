(* Tests for xy_alerters: URL alerter (hash and trie), XML alerter
   (WordTable detection, change patterns), HTML alerter, and the chain
   with its weak/strong rule. *)

module Atomic = Xy_events.Atomic
module Registry = Xy_events.Registry
module Url_alerter = Xy_alerters.Url_alerter
module Xml_alerter = Xy_alerters.Xml_alerter
module Html_alerter = Xy_alerters.Html_alerter
module Chain = Xy_alerters.Chain
module Alert = Xy_alerters.Alert
module Loader = Xy_warehouse.Loader
module Store = Xy_warehouse.Store
module Domains = Xy_warehouse.Domains
module Meta = Xy_warehouse.Meta
module Clock = Xy_util.Clock
module T = Xy_xml.Types

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_codes = Alcotest.(check (list int))

let meta ?(url = "http://x/") ?(docid = 1) ?(domain = None) ?(dtd = None)
    ?(dtdid = None) ?(accessed = 0.) ?(updated = 0.) () =
  {
    Meta.url;
    docid;
    kind = Meta.Xml_doc;
    domain;
    dtd;
    dtdid;
    signature = "s";
    last_accessed = accessed;
    last_updated = updated;
    version = 1;
  }

(* ------------------------------------------------------------------ *)
(* URL alerter, both extends implementations *)

let url_impls = [ ("hash", Url_alerter.Hash_prefixes); ("trie", Url_alerter.Trie) ]

let with_url_alerter impl conditions f =
  let registry = Registry.create () in
  let alerter = Url_alerter.create ~extends_impl:impl registry in
  let codes = List.map (Registry.register registry) conditions in
  f registry alerter codes

let test_url_extends impl () =
  with_url_alerter impl
    [
      Atomic.Url_extends "http://inria.fr/Xy/";
      Atomic.Url_extends "http://inria.fr/";
      Atomic.Url_extends "http://other.org/";
    ]
    (fun _ alerter codes ->
      match codes with
      | [ xy; inria; other ] ->
          check_codes "both prefixes" [ xy; inria ]
            (List.sort compare
               (Url_alerter.detect alerter
                  ~meta:(meta ~url:"http://inria.fr/Xy/members.xml" ())
                  ~status:Atomic.Unchanged));
          check_codes "one prefix" [ inria ]
            (Url_alerter.detect alerter
               ~meta:(meta ~url:"http://inria.fr/verso/" ())
               ~status:Atomic.Unchanged);
          check_codes "exact prefix boundary" [ other ]
            (Url_alerter.detect alerter
               ~meta:(meta ~url:"http://other.org/" ())
               ~status:Atomic.Unchanged);
          check_codes "no match" []
            (Url_alerter.detect alerter
               ~meta:(meta ~url:"http://nowhere.net/" ())
               ~status:Atomic.Unchanged)
      | _ -> Alcotest.fail "codes")

let test_url_exact_and_filename impl () =
  with_url_alerter impl
    [
      Atomic.Url_equals "http://a/index.html";
      Atomic.Filename_equals "index.html";
    ]
    (fun _ alerter codes ->
      match codes with
      | [ exact; fname ] ->
          check_codes "both" [ exact; fname ]
            (List.sort compare
               (Url_alerter.detect alerter
                  ~meta:(meta ~url:"http://a/index.html" ())
                  ~status:Atomic.Unchanged));
          check_codes "filename elsewhere" [ fname ]
            (Url_alerter.detect alerter
               ~meta:(meta ~url:"http://b/dir/index.html" ())
               ~status:Atomic.Unchanged)
      | _ -> Alcotest.fail "codes")

let test_url_meta_conditions impl () =
  with_url_alerter impl
    [
      Atomic.Docid_equals 7;
      Atomic.Dtdid_equals 3;
      Atomic.Dtd_equals "http://d/c.dtd";
      Atomic.Domain_equals "culture";
      Atomic.Doc_status Atomic.Updated;
    ]
    (fun _ alerter codes ->
      let m =
        meta ~docid:7 ~dtd:(Some "http://d/c.dtd") ~dtdid:(Some 3)
          ~domain:(Some "culture") ()
      in
      check_codes "all fire" (List.sort compare codes)
        (Url_alerter.detect alerter ~meta:m ~status:Atomic.Updated);
      check_codes "status only when matching"
        (List.sort compare (List.filteri (fun i _ -> i < 4) codes))
        (Url_alerter.detect alerter ~meta:m ~status:Atomic.New))

let test_url_date_conditions impl () =
  with_url_alerter impl
    [
      Atomic.Last_updated (Atomic.After, 100.);
      Atomic.Last_accessed (Atomic.Before, 50.);
    ]
    (fun _ alerter codes ->
      match codes with
      | [ upd; acc ] ->
          check_codes "updated after" [ upd ]
            (Url_alerter.detect alerter
               ~meta:(meta ~updated:200. ~accessed:60. ())
               ~status:Atomic.Unchanged);
          check_codes "accessed before" [ acc ]
            (Url_alerter.detect alerter
               ~meta:(meta ~updated:50. ~accessed:10. ())
               ~status:Atomic.Unchanged)
      | _ -> Alcotest.fail "codes")

let test_url_dynamic_removal impl () =
  let registry = Registry.create () in
  let alerter = Url_alerter.create ~extends_impl:impl registry in
  let cond = Atomic.Url_extends "http://a/" in
  let code = Registry.register registry cond in
  check_codes "indexed" [ code ]
    (Url_alerter.detect alerter ~meta:(meta ~url:"http://a/x" ()) ~status:Atomic.New);
  ignore (Registry.release registry code);
  check_codes "retired" []
    (Url_alerter.detect alerter ~meta:(meta ~url:"http://a/x" ()) ~status:Atomic.New);
  checki "count" 0 (Url_alerter.condition_count alerter)

let test_url_hash_trie_agree () =
  (* Property: both extends structures give identical results on random
     pattern sets and urls. *)
  let prng = Xy_util.Prng.create ~seed:31 in
  let registry = Registry.create () in
  let hash = Url_alerter.create ~extends_impl:Url_alerter.Hash_prefixes registry in
  let trie = Url_alerter.create ~extends_impl:Url_alerter.Trie registry in
  let hosts = [| "a.com"; "b.org"; "c.net" |] in
  for _ = 1 to 200 do
    let host = Xy_util.Prng.pick prng hosts in
    let depth = Xy_util.Prng.int prng 3 in
    let path =
      String.concat "/" (List.init depth (fun _ -> Xy_util.Prng.word prng))
    in
    ignore
      (Registry.register registry
         (Atomic.Url_extends (Printf.sprintf "http://%s/%s" host path)))
  done;
  for _ = 1 to 500 do
    let host = Xy_util.Prng.pick prng hosts in
    let depth = Xy_util.Prng.int prng 4 in
    let path =
      String.concat "/" (List.init depth (fun _ -> Xy_util.Prng.word prng))
    in
    let m = meta ~url:(Printf.sprintf "http://%s/%s" host path) () in
    check_codes "hash = trie"
      (Url_alerter.detect hash ~meta:m ~status:Atomic.Unchanged)
      (Url_alerter.detect trie ~meta:m ~status:Atomic.Unchanged)
  done

(* ------------------------------------------------------------------ *)
(* XML alerter *)

let load_result loader ~url content =
  Loader.load loader ~url ~content ~kind:Loader.Xml

let fresh_pipeline () =
  let clock = Clock.create () in
  let store = Store.create () in
  let loader = Loader.create ~store ~clock () in
  let registry = Registry.create () in
  let alerter = Xml_alerter.create registry in
  (loader, registry, alerter)

let test_xml_has_tag () =
  let loader, registry, alerter = fresh_pipeline () in
  let code = Registry.register registry (Atomic.Has_tag "product") in
  let r = load_result loader ~url:"u" "<catalog><product>tv</product></catalog>" in
  let d = Xml_alerter.detect alerter ~result:r in
  check_codes "tag present" [ code ] d.Xml_alerter.codes;
  let r2 = load_result loader ~url:"v" "<catalog><item/></catalog>" in
  check_codes "tag absent" [] (Xml_alerter.detect alerter ~result:r2).Xml_alerter.codes

let test_xml_contains_anywhere () =
  let loader, registry, alerter = fresh_pipeline () in
  let code =
    Registry.register registry
      (Atomic.Element
         { change = None; tag = "product"; word = Some (Atomic.Anywhere, "camera") })
  in
  let r =
    load_result loader ~url:"u"
      "<catalog><product><desc>a nice camera indeed</desc></product></catalog>"
  in
  check_codes "nested word found" [ code ]
    (Xml_alerter.detect alerter ~result:r).Xml_alerter.codes;
  let r2 =
    load_result loader ~url:"v"
      "<catalog><product><desc>a tv</desc></product><other>camera</other></catalog>"
  in
  check_codes "word outside the tag" []
    (Xml_alerter.detect alerter ~result:r2).Xml_alerter.codes

let test_xml_strict_contains () =
  let loader, registry, alerter = fresh_pipeline () in
  let strict =
    Registry.register registry
      (Atomic.Element
         { change = None; tag = "product"; word = Some (Atomic.Strict, "camera") })
  in
  let anywhere =
    Registry.register registry
      (Atomic.Element
         { change = None; tag = "product"; word = Some (Atomic.Anywhere, "camera") })
  in
  let nested =
    load_result loader ~url:"u"
      "<c><product><desc>camera</desc></product></c>"
  in
  check_codes "nested: only anywhere" [ anywhere ]
    (Xml_alerter.detect alerter ~result:nested).Xml_alerter.codes;
  let direct =
    load_result loader ~url:"v" "<c><product>camera <b>stuff</b></product></c>"
  in
  check_codes "direct: both" [ strict; anywhere ]
    (List.sort compare (Xml_alerter.detect alerter ~result:direct).Xml_alerter.codes)

let test_xml_doc_contains () =
  let loader, registry, alerter = fresh_pipeline () in
  let code = Registry.register registry (Atomic.Doc_contains "electronic") in
  let r = load_result loader ~url:"u" "<doc><a><b>electronic стuff</b></a></doc>" in
  check_codes "document word" [ code ]
    (Xml_alerter.detect alerter ~result:r).Xml_alerter.codes

let test_xml_new_element () =
  let loader, registry, alerter = fresh_pipeline () in
  let code =
    Registry.register registry
      (Atomic.Element { change = Some Atomic.New; tag = "Member"; word = None })
  in
  let v1 = "<team><Member><name>jouglet</name></Member></team>" in
  let r1 = load_result loader ~url:"u" v1 in
  check_codes "no change on first load" []
    (Xml_alerter.detect alerter ~result:r1).Xml_alerter.codes;
  let v2 =
    "<team><Member><name>jouglet</name></Member><Member><name>nguyen</name></Member></team>"
  in
  let r2 = load_result loader ~url:"u" v2 in
  let d = Xml_alerter.detect alerter ~result:r2 in
  check_codes "new member" [ code ] d.Xml_alerter.codes;
  (* The matched element rides along as data. *)
  (match List.assoc_opt code d.Xml_alerter.data with
  | Some [ e ] ->
      Alcotest.(check string) "payload element" "Member" e.T.tag;
      checkb "right member" true
        (Xy_query.Eval.word_contains ~word:"nguyen" (T.text_content e))
  | _ -> Alcotest.fail "expected one matched element")

let test_xml_new_element_with_word () =
  let loader, registry, alerter = fresh_pipeline () in
  let code =
    Registry.register registry
      (Atomic.Element
         { change = Some Atomic.New; tag = "product"; word = Some (Atomic.Anywhere, "camera") })
  in
  ignore (load_result loader ~url:"u" "<c><product>tv</product></c>");
  let r2 =
    load_result loader ~url:"u"
      "<c><product>tv</product><product>a camera</product></c>"
  in
  check_codes "new product with word" [ code ]
    (Xml_alerter.detect alerter ~result:r2).Xml_alerter.codes;
  let r3 =
    load_result loader ~url:"u"
      "<c><product>tv</product><product>a camera</product><product>radio</product></c>"
  in
  check_codes "new product without word" []
    (Xml_alerter.detect alerter ~result:r3).Xml_alerter.codes

let test_xml_updated_element () =
  let loader, registry, alerter = fresh_pipeline () in
  let code =
    Registry.register registry
      (Atomic.Element { change = Some Atomic.Updated; tag = "product"; word = None })
  in
  ignore (load_result loader ~url:"u" "<c><product><price>10</price></product></c>");
  let r2 = load_result loader ~url:"u" "<c><product><price>12</price></product></c>" in
  check_codes "updated (ancestor of change)" [ code ]
    (Xml_alerter.detect alerter ~result:r2).Xml_alerter.codes

let test_xml_deleted_element () =
  let loader, registry, alerter = fresh_pipeline () in
  let code =
    Registry.register registry
      (Atomic.Element { change = Some Atomic.Deleted; tag = "product"; word = None })
  in
  ignore
    (load_result loader ~url:"u" "<c><product>tv</product><product>cam</product></c>");
  let r2 = load_result loader ~url:"u" "<c><product>tv</product></c>" in
  check_codes "deleted product" [ code ]
    (Xml_alerter.detect alerter ~result:r2).Xml_alerter.codes

let test_xml_detect_deleted_document () =
  let loader, registry, alerter = fresh_pipeline () in
  let code =
    Registry.register registry
      (Atomic.Element { change = Some Atomic.Deleted; tag = "product"; word = None })
  in
  let r = load_result loader ~url:"u" "<c><product>tv</product></c>" in
  let tree = Option.get r.Loader.tree in
  let d = Xml_alerter.detect_deleted alerter ~tree in
  check_codes "element deletions on doc removal" [ code ] d.Xml_alerter.codes

let test_xml_fires_once_per_document () =
  let loader, registry, alerter = fresh_pipeline () in
  let code = Registry.register registry (Atomic.Has_tag "p") in
  let r = load_result loader ~url:"u" "<c><p>1</p><p>2</p><p>3</p></c>" in
  check_codes "deduplicated" [ code ]
    (Xml_alerter.detect alerter ~result:r).Xml_alerter.codes

(* ------------------------------------------------------------------ *)
(* HTML alerter *)

let test_html_contains () =
  let registry = Registry.create () in
  let alerter = Html_alerter.create registry in
  let code = Registry.register registry (Atomic.Doc_contains "xyleme") in
  check_codes "word in text" [ code ]
    (Html_alerter.detect alerter
       ~content:"<html><body>About Xyleme project</body></html>");
  check_codes "word only in markup" []
    (Html_alerter.detect alerter ~content:"<html xyleme=\"1\"><body>hi</body></html>");
  check_codes "absent" [] (Html_alerter.detect alerter ~content:"<p>nothing</p>")

(* ------------------------------------------------------------------ *)
(* Chain: weak/strong rule and payload *)

let chain_pipeline () =
  let clock = Clock.create () in
  let store = Store.create () in
  let loader = Loader.create ~store ~clock () in
  let registry = Registry.create () in
  let chain = Chain.create registry in
  (loader, registry, chain)

let test_chain_weak_only_suppressed () =
  let loader, registry, chain = chain_pipeline () in
  ignore (Registry.register registry (Atomic.Doc_status Atomic.New));
  let r = load_result loader ~url:"http://a/x" "<d/>" in
  checkb "weak-only alert suppressed" true
    (Chain.process chain ~result:r ~content:"<d/>" = None)

let test_chain_strong_carries_weak () =
  let loader, registry, chain = chain_pipeline () in
  let weak = Registry.register registry (Atomic.Doc_status Atomic.New) in
  let strong = Registry.register registry (Atomic.Url_extends "http://a/") in
  let r = load_result loader ~url:"http://a/x" "<d/>" in
  match Chain.process chain ~result:r ~content:"<d/>" with
  | Some alert ->
      check_codes "weak + strong" [ weak; strong ]
        (List.sort compare (Xy_events.Event_set.to_list alert.Alert.events))
  | None -> Alcotest.fail "expected an alert"

let test_chain_payload_shape () =
  let loader, registry, chain = chain_pipeline () in
  ignore (Registry.register registry (Atomic.Url_extends "http://a/"));
  let code_member =
    Registry.register registry
      (Atomic.Element { change = Some Atomic.New; tag = "Member"; word = None })
  in
  ignore (load_result loader ~url:"http://a/m" "<t><Member>x</Member></t>");
  let r2 =
    load_result loader ~url:"http://a/m" "<t><Member>x</Member><Member>y</Member></t>"
  in
  match Chain.process chain ~result:r2 ~content:"" with
  | Some alert ->
      let payload = alert.Alert.payload in
      Alcotest.(check string) "payload root" "doc" payload.T.tag;
      Alcotest.(check (option string)) "url attr" (Some "http://a/m")
        (T.attr payload "url");
      Alcotest.(check (option string)) "status" (Some "updated")
        (T.attr payload "status");
      let matched = T.children_elements payload in
      checki "one matched group" 1 (List.length matched);
      Alcotest.(check (option string)) "code attr"
        (Some (string_of_int code_member))
        (T.attr (List.hd matched) "code");
      (* Round-trips through the opaque string representation. *)
      let reparsed = Xy_xml.Parser.parse_element (Alert.payload_string alert) in
      checkb "payload string parses back" true (T.equal_element payload reparsed)
  | None -> Alcotest.fail "expected an alert"

let test_chain_html_document () =
  let loader, registry, chain = chain_pipeline () in
  let code = Registry.register registry (Atomic.Doc_contains "news") in
  let content = "<html><body>Latest news</body></html>" in
  let r = Loader.load loader ~url:"http://h/" ~content ~kind:Loader.Html in
  match Chain.process chain ~result:r ~content with
  | Some alert ->
      check_codes "html contains" [ code ]
        (Xy_events.Event_set.to_list alert.Alert.events)
  | None -> Alcotest.fail "expected an alert"

let test_chain_html_element_conditions () =
  (* Element-level conditions apply to HTML pages through the lenient
     DOM parse (tags are case-folded to lowercase). *)
  let loader, registry, chain = chain_pipeline () in
  let h1_code =
    Registry.register registry
      (Atomic.Element
         { change = None; tag = "h1"; word = Some (Atomic.Anywhere, "breaking") })
  in
  let tag_code = Registry.register registry (Atomic.Has_tag "table") in
  let content =
    "<HTML><BODY><H1>Breaking news</H1><TABLE><TR><TD>x</TABLE></BODY></HTML>"
  in
  let r = Loader.load loader ~url:"http://n/" ~content ~kind:Loader.Html in
  (match Chain.process chain ~result:r ~content with
  | Some alert ->
      check_codes "h1 contains + table tag" [ h1_code; tag_code ]
        (List.sort compare (Xy_events.Event_set.to_list alert.Alert.events))
  | None -> Alcotest.fail "expected an alert");
  (* Not fooled by words in markup only. *)
  let r2 =
    Loader.load loader ~url:"http://n/2"
      ~content:"<html><body breaking=\"1\"><h1>calm</h1></body></html>"
      ~kind:Loader.Html
  in
  checkb "attribute values are not element text" true
    (Chain.process chain ~result:r2
       ~content:"<html><body breaking=\"1\"><h1>calm</h1></body></html>"
    = None)

let test_chain_deleted_document () =
  let loader, registry, chain = chain_pipeline () in
  let del_doc = Registry.register registry (Atomic.Doc_status Atomic.Deleted) in
  let del_el =
    Registry.register registry
      (Atomic.Element { change = Some Atomic.Deleted; tag = "p"; word = None })
  in
  let r = load_result loader ~url:"u" "<c><p>x</p></c>" in
  let tree = r.Loader.tree in
  let meta = Option.get (Loader.delete loader ~url:"u") in
  match Chain.process_deleted chain ~meta ~tree with
  | Some alert ->
      check_codes "deletion events" [ del_doc; del_el ]
        (List.sort compare (Xy_events.Event_set.to_list alert.Alert.events))
  | None -> Alcotest.fail "expected an alert"

let test_chain_invariants_random () =
  (* Property: for random condition sets and random documents, every
     alert the chain emits (1) has a strictly increasing event set —
     the MQP's precondition, (2) contains at least one strong event,
     (3) references only live registry codes. *)
  let prng = Xy_util.Prng.create ~seed:2027 in
  let loader, registry, chain = chain_pipeline () in
  let tags = [| "a"; "b"; "product"; "item"; "Member" |] in
  let words = [| "camera"; "radio"; "xml"; "data" |] in
  for _ = 1 to 60 do
    let condition =
      match Xy_util.Prng.int prng 6 with
      | 0 -> Atomic.Url_extends (Printf.sprintf "http://s%d." (Xy_util.Prng.int prng 4))
      | 1 -> Atomic.Has_tag (Xy_util.Prng.pick prng tags)
      | 2 ->
          Atomic.Element
            {
              change = None;
              tag = Xy_util.Prng.pick prng tags;
              word = Some (Atomic.Anywhere, Xy_util.Prng.pick prng words);
            }
      | 3 ->
          Atomic.Element
            {
              change = Some Atomic.New;
              tag = Xy_util.Prng.pick prng tags;
              word = None;
            }
      | 4 -> Atomic.Doc_contains (Xy_util.Prng.pick prng words)
      | _ ->
          Atomic.Doc_status
            (Xy_util.Prng.pick prng [| Atomic.New; Atomic.Updated; Atomic.Unchanged |])
    in
    ignore (Registry.register registry condition)
  done;
  for doc = 1 to 200 do
    let url = Printf.sprintf "http://s%d.example/%d" (Xy_util.Prng.int prng 6) (doc mod 17) in
    let content =
      Printf.sprintf "<%s><%s>%s %s</%s></%s>"
        (Xy_util.Prng.pick prng tags) (Xy_util.Prng.pick prng tags)
        (Xy_util.Prng.pick prng words) (Xy_util.Prng.word prng)
        (Xy_util.Prng.pick prng tags) (Xy_util.Prng.pick prng tags)
    in
    (* content may be ill-formed (mismatched tags): that is part of the
       property — the pipeline must reject, not crash *)
    match Loader.load loader ~url ~content ~kind:Loader.Auto with
    | exception Loader.Rejected _ -> ()
    | result -> (
        match Chain.process chain ~result ~content with
        | None -> ()
        | Some alert ->
            let events = Xy_events.Event_set.to_list alert.Alert.events in
            (* strictly increasing *)
            let rec increasing = function
              | a :: (b :: _ as rest) -> a < b && increasing rest
              | _ -> true
            in
            checkb "sorted event set" true (increasing events);
            checkb "has a strong event" true
              (List.exists
                 (fun code ->
                   match Registry.condition registry code with
                   | Some c -> not (Atomic.is_weak c)
                   | None -> false)
                 events);
            checkb "all codes live" true
              (List.for_all
                 (fun code -> Registry.condition registry code <> None)
                 events))
  done

let test_chain_no_events_no_alert () =
  let loader, _, chain = chain_pipeline () in
  let r = load_result loader ~url:"u" "<c/>" in
  checkb "silent when nothing registered" true
    (Chain.process chain ~result:r ~content:"<c/>" = None)

(* ------------------------------------------------------------------ *)
(* Chain: memoized content detection *)

module Obs = Xy_obs.Obs

let counted_chain () =
  let obs = Obs.create () in
  let clock = Clock.create () in
  let store = Store.create () in
  let loader = Loader.create ~obs ~store ~clock () in
  let registry = Registry.create () in
  let chain = Chain.create ~obs registry in
  (obs, loader, registry, chain)

let alerters_count obs name =
  Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"alerters" name

let events_of = function
  | Some alert -> List.sort compare (Xy_events.Event_set.to_list alert.Alert.events)
  | None -> []

(* A memoized page still follows the content conditions: one added
   while it sits in the memo fires on the next unchanged fetch, one
   retired stops firing.  URL conditions never touch the memo. *)
let test_chain_memo_follows_registry () =
  List.iter
    (fun (label, kind, content) ->
      let obs, loader, registry, chain = counted_chain () in
      let url = "http://shop.example/p" in
      let site =
        Registry.register registry (Atomic.Url_extends "http://shop.example/")
      in
      let fetch () =
        let result = Loader.load loader ~url ~content ~kind in
        events_of (Chain.process chain ~result ~content)
      in
      let hits () = alerters_count obs "memo_hits" in
      check_codes (label ^ ": first read") [ site ] (fetch ());
      check_codes (label ^ ": refetch") [ site ] (fetch ());
      checki (label ^ ": memoized") 1 (hits ());
      let camera = Atomic.Doc_contains "camera" in
      let code = Registry.register registry camera in
      check_codes (label ^ ": new word fires") [ site; code ] (fetch ());
      checki (label ^ ": re-read once") 1 (alerters_count obs "memo_invalidated");
      check_codes (label ^ ": from the memo") [ site; code ] (fetch ());
      checki (label ^ ": memo hit") 2 (hits ());
      ignore (Registry.release registry code);
      check_codes (label ^ ": retired word stops") [ site ] (fetch ());
      let exact = Registry.register registry (Atomic.Url_equals url) in
      check_codes (label ^ ": url condition") [ site; exact ] (fetch ());
      checki (label ^ ": url conditions keep the memo") 3 (hits ()))
    [
      ("xml", Loader.Xml, "<c><p>camera</p></c>");
      ("html", Loader.Html, "<html><body>camera</body></html>");
    ]

let test_chain_memo_dropped_on_delete () =
  let obs, loader, registry, chain = counted_chain () in
  let url = "http://a/p" in
  ignore (Registry.register registry (Atomic.Url_extends "http://a/"));
  ignore (Registry.register registry (Atomic.Has_tag "p"));
  let content = "<c><p>x</p></c>" in
  let fetch () =
    let result = Loader.load loader ~url ~content ~kind:Loader.Xml in
    ignore (Chain.process chain ~result ~content)
  in
  fetch ();
  fetch ();
  checki "memoized" 1 (alerters_count obs "memo_hits");
  let tree =
    Option.bind (Store.find (Loader.store loader) url) (fun e -> e.Store.tree)
  in
  let meta = Option.get (Loader.delete loader ~url) in
  ignore (Chain.process_deleted chain ~meta ~tree);
  fetch ();
  checki "the page comes back: read again" 1 (alerters_count obs "memo_hits");
  fetch ();
  checki "then memoized again" 2 (alerters_count obs "memo_hits")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let per_impl name f =
    List.map (fun (label, impl) -> tc (label ^ ": " ^ name) (f impl)) url_impls
  in
  Alcotest.run "alerters"
    [
      ( "url",
        per_impl "extends" test_url_extends
        @ per_impl "exact and filename" test_url_exact_and_filename
        @ per_impl "metadata conditions" test_url_meta_conditions
        @ per_impl "date conditions" test_url_date_conditions
        @ per_impl "dynamic removal" test_url_dynamic_removal
        @ [ tc "hash and trie agree" test_url_hash_trie_agree ] );
      ( "xml",
        [
          tc "has tag" test_xml_has_tag;
          tc "contains anywhere" test_xml_contains_anywhere;
          tc "strict contains" test_xml_strict_contains;
          tc "doc contains" test_xml_doc_contains;
          tc "new element" test_xml_new_element;
          tc "new element with word" test_xml_new_element_with_word;
          tc "updated element" test_xml_updated_element;
          tc "deleted element" test_xml_deleted_element;
          tc "deleted document elements" test_xml_detect_deleted_document;
          tc "fires once per document" test_xml_fires_once_per_document;
        ] );
      ("html", [ tc "contains" test_html_contains ]);
      ( "chain",
        [
          tc "weak-only suppressed" test_chain_weak_only_suppressed;
          tc "strong carries weak" test_chain_strong_carries_weak;
          tc "payload shape" test_chain_payload_shape;
          tc "html document" test_chain_html_document;
          tc "html element conditions" test_chain_html_element_conditions;
          tc "deleted document" test_chain_deleted_document;
          tc "no events, no alert" test_chain_no_events_no_alert;
          tc "invariants (random)" test_chain_invariants_random;
          tc "memo follows the registry" test_chain_memo_follows_registry;
          tc "memo dropped on delete" test_chain_memo_dropped_on_delete;
        ] );
    ]
