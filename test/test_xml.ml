(* Tests for xy_xml: lexer/parser/printer round-trips, paths, XIDs,
   DTD identification. *)

module T = Xy_xml.Types
module Parser = Xy_xml.Parser
module Printer = Xy_xml.Printer
module Path = Xy_xml.Path
module Xid = Xy_xml.Xid
module Dtd = Xy_xml.Dtd

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let element =
  Alcotest.testable Printer.pp_element T.equal_element

let parse = Parser.parse_element

(* Serialization merges adjacent text nodes; normalize before
   comparing a tree against its print/parse image. *)
let rec normalize (e : T.element) =
  let rec merge = function
    | [] -> []
    | (T.Text a | T.Cdata a) :: (T.Text b | T.Cdata b) :: rest ->
        merge (T.Text (a ^ b) :: rest)
    | T.Element child :: rest -> T.Element (normalize child) :: merge rest
    | node :: rest -> node :: merge rest
  in
  { e with T.children = merge e.T.children }

(* Pretty-printing adds indentation text; strip blank text nodes
   before comparing. *)
let rec strip_blank (e : T.element) =
  let is_blank s =
    String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) s
  in
  let children =
    List.filter_map
      (fun node ->
        match node with
        | T.Text s when is_blank s -> None
        | T.Element child -> Some (T.Element (strip_blank child))
        | other -> Some other)
      e.T.children
  in
  { e with T.children }

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_parse_simple () =
  let e = parse "<a><b>hello</b><c/></a>" in
  checks "root tag" "a" e.T.tag;
  checki "children" 2 (List.length (T.children_elements e))

let test_parse_attributes () =
  let e = parse {|<page url="http://inria.fr/Xy/" rank='12'/>|} in
  Alcotest.(check (option string)) "double-quoted" (Some "http://inria.fr/Xy/")
    (T.attr e "url");
  Alcotest.(check (option string)) "single-quoted" (Some "12") (T.attr e "rank");
  Alcotest.(check (option string)) "missing" None (T.attr e "nope")

let test_parse_entities () =
  let e = parse "<t>a &lt; b &amp;&amp; c &gt; d &quot;x&quot; &apos;y&apos;</t>" in
  checks "resolved" {|a < b && c > d "x" 'y'|} (T.text_content e)

let test_parse_numeric_refs () =
  let e = parse "<t>&#65;&#x42;&#233;</t>" in
  checks "decimal, hex, utf8" "AB\xc3\xa9" (T.text_content e)

let test_parse_cdata () =
  let e = parse "<t><![CDATA[<not> &parsed;]]></t>" in
  checks "verbatim" "<not> &parsed;" (T.text_content e)

let test_parse_comments_and_pi () =
  let e = parse "<t><!-- a comment --><?php echo ?><x/></t>" in
  checki "element children only" 1 (List.length (T.children_elements e));
  checki "all nodes kept" 3 (List.length e.T.children)

let test_parse_doctype () =
  let doc =
    Parser.parse
      {|<?xml version="1.0"?>
<!DOCTYPE catalog SYSTEM "http://www.amazon.com/dtd/catalog.dtd">
<catalog><product/></catalog>|}
  in
  match doc.T.doctype with
  | None -> Alcotest.fail "expected doctype"
  | Some dt ->
      checks "root name" "catalog" dt.T.root_name;
      Alcotest.(check (option string)) "system id"
        (Some "http://www.amazon.com/dtd/catalog.dtd") dt.T.system_id

let test_parse_doctype_public () =
  let doc =
    Parser.parse
      {|<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0//EN" "http://www.w3.org/xhtml1.dtd"><html/>|}
  in
  match doc.T.doctype with
  | None -> Alcotest.fail "expected doctype"
  | Some dt ->
      Alcotest.(check (option string)) "public id" (Some "-//W3C//DTD XHTML 1.0//EN")
        dt.T.public_id;
      Alcotest.(check (option string)) "system id"
        (Some "http://www.w3.org/xhtml1.dtd") dt.T.system_id

let test_parse_internal_subset_skipped () =
  let doc = Parser.parse "<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>x</r>" in
  checks "root parsed" "r" doc.T.root.T.tag

let test_parse_errors () =
  let fails input =
    match Parser.parse input with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %s" input)
  in
  fails "<a><b></a></b>";
  fails "<a>";
  fails "<a/><b/>";
  fails "";
  fails "<a>&unknown;</a>";
  fails "<a x=y/>";
  fails "<a><b attr=\"<\"/></a>";
  fails "text only"

let test_parse_mismatch_position () =
  match Parser.parse "<a>\n  <b>\n  </c>\n</a>" with
  | exception Parser.Error { line; _ } -> checki "error line" 3 line
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Printing *)

let test_print_roundtrip_simple () =
  let e = parse "<a x=\"1\"><b>text</b><c/></a>" in
  Alcotest.check element "roundtrip" e (parse (Printer.element_to_string e))

let test_print_escaping () =
  let e = T.element "t" ~attrs:[ ("a", "x\"<>&") ] [ T.text "a<b&c>d" ] in
  let printed = Printer.element_to_string e in
  Alcotest.check element "escaped roundtrip" e (parse printed);
  checkb "no raw <" false (String.length printed > 0 && String.contains (List.hd (String.split_on_char '>' printed)) 'x' && false)

let test_print_pretty_stable () =
  let e = parse "<a><b><c/></b></a>" in
  let pretty = Printer.element_to_string ~indent:2 e in
  Alcotest.check element "pretty roundtrip" e (strip_blank (parse pretty));
  checkb "has newlines" true (String.contains pretty '\n')

let test_print_doc_with_doctype () =
  let doc =
    Parser.parse "<!DOCTYPE r SYSTEM \"http://x/r.dtd\"><r><a/></r>"
  in
  let s = Printer.doc_to_string doc in
  let doc2 = Parser.parse s in
  (match doc2.T.doctype with
  | Some dt ->
      Alcotest.(check (option string)) "system id preserved"
        (Some "http://x/r.dtd") dt.T.system_id
  | None -> Alcotest.fail "doctype lost");
  Alcotest.check element "root preserved" doc.T.root doc2.T.root

(* qcheck: random tree roundtrip *)
let gen_tree : T.element QCheck.arbitrary =
  let open QCheck in
  let tag_gen = Gen.oneofl [ "a"; "b"; "product"; "Member"; "x-y"; "ns:t" ] in
  let text_gen =
    Gen.oneofl [ "hello"; "a < b"; "x & y"; "\"quoted\""; "caf\xc3\xa9"; "  spaced  " ]
  in
  let rec tree_gen depth =
    let open Gen in
    if depth = 0 then
      tag_gen >>= fun tag ->
      oneofl [ []; [ T.Text "leaf" ] ] >|= fun children -> T.element tag children
    else
      tag_gen >>= fun tag ->
      list_size (0 -- 3)
        (frequency
           [
             (3, tree_gen (depth - 1) >|= fun e -> T.Element e);
             (2, text_gen >|= fun s -> T.Text s);
           ])
      >>= fun children ->
      list_size (0 -- 2) (pair (oneofl [ "id"; "url"; "name" ]) text_gen)
      >|= fun attrs ->
      let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs in
      T.element tag ~attrs children
  in
  make ~print:(Printer.element_to_string ~indent:2) (tree_gen 3)

(* The printer as it was before it stopped allocating per node, kept as
   the reference its output must equal byte for byte. *)
module Reference_printer = struct
  let escape_generic ~quotes s =
    let needs_escape = function
      | '&' | '<' | '>' -> true
      | '"' | '\'' -> quotes
      | _ -> false
    in
    if String.exists needs_escape s then begin
      let buf = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          match c with
          | '&' -> Buffer.add_string buf "&amp;"
          | '<' -> Buffer.add_string buf "&lt;"
          | '>' -> Buffer.add_string buf "&gt;"
          | '"' when quotes -> Buffer.add_string buf "&quot;"
          | '\'' when quotes -> Buffer.add_string buf "&apos;"
          | c -> Buffer.add_char buf c)
        s;
      Buffer.contents buf
    end
    else s

  let escape_text = escape_generic ~quotes:false
  let escape_attr = escape_generic ~quotes:true

  let has_text_child e =
    List.exists
      (function T.Text _ | T.Cdata _ -> true | _ -> false)
      e.T.children

  let element_to_string ?indent root =
    let buf = Buffer.create 256 in
    let pad level =
      match indent with
      | None -> ()
      | Some n ->
          if Buffer.length buf > 0 then Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (level * n) ' ')
    in
    let add_attrs attrs =
      List.iter
        (fun (name, value) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf name;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_attr value);
          Buffer.add_char buf '"')
        attrs
    in
    let rec go level ~pretty e =
      if pretty then pad level;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.T.tag;
      add_attrs e.T.attrs;
      if e.T.children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let mixed = has_text_child e in
        let child_pretty = pretty && not mixed in
        List.iter
          (fun node ->
            match node with
            | T.Element child -> go (level + 1) ~pretty:child_pretty child
            | T.Text s -> Buffer.add_string buf (escape_text s)
            | T.Cdata s ->
                Buffer.add_string buf "<![CDATA[";
                Buffer.add_string buf s;
                Buffer.add_string buf "]]>"
            | T.Comment s ->
                if child_pretty then pad (level + 1);
                Buffer.add_string buf "<!--";
                Buffer.add_string buf s;
                Buffer.add_string buf "-->"
            | T.Pi (target, content) ->
                if child_pretty then pad (level + 1);
                Buffer.add_string buf "<?";
                Buffer.add_string buf target;
                Buffer.add_char buf ' ';
                Buffer.add_string buf content;
                Buffer.add_string buf "?>")
          e.T.children;
        if child_pretty then pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.T.tag;
        Buffer.add_char buf '>'
      end
    in
    go 0 ~pretty:(indent <> None) root;
    Buffer.contents buf
end

(* Trees with every node kind, markup characters in texts and attribute
   values, and empty elements, printed with or without an indent. *)
let gen_printable : (int option * T.element) QCheck.arbitrary =
  let open QCheck.Gen in
  let chars = "ab &<>\"' \n\xc3\xa9" in
  let str = string_size ~gen:(oneofl (List.init (String.length chars) (String.get chars))) (0 -- 12) in
  let rec tree depth =
    let* tag = oneofl [ "a"; "b"; "product"; "ns:t" ] in
    let* attrs = list_size (0 -- 3) (pair (oneofl [ "id"; "url"; "q" ]) str) in
    let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs in
    let leaf =
      [
        (3, map (fun s -> T.Text s) str);
        (1, map (fun s -> T.Cdata s) str);
        (1, map (fun s -> T.Comment s) str);
        (1, map2 (fun t c -> T.Pi (t, c)) (oneofl [ "pi"; "xml-stylesheet" ]) str);
      ]
    in
    let node =
      if depth = 0 then frequency leaf
      else frequency ((4, map (fun e -> T.Element e) (tree (depth - 1))) :: leaf)
    in
    let+ children = list_size (0 -- 4) node in
    T.element tag ~attrs children
  in
  QCheck.make
    ~print:(fun (indent, e) ->
      Printf.sprintf "indent=%s %S"
        (match indent with None -> "none" | Some n -> string_of_int n)
        (Reference_printer.element_to_string e))
    (pair (opt (0 -- 3)) (0 -- 3 >>= tree))

let qcheck_printer_equals_reference =
  QCheck.Test.make ~name:"printer = reference printer" ~count:500 gen_printable
    (fun (indent, e) ->
      String.equal
        (Printer.element_to_string ?indent e)
        (Reference_printer.element_to_string ?indent e)
      && String.equal
           (Printer.doc_to_string ?indent (T.doc e))
           ("<?xml version=\"1.0\"?>"
           ^ (if indent = None then "" else "\n")
           ^ Reference_printer.element_to_string ?indent e))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"print/parse roundtrip" ~count:300 gen_tree (fun e ->
        T.equal_element (normalize e) (parse (Printer.element_to_string e)));
    (* Fuzz: arbitrary input must either parse or raise Parser.Error —
       never crash with anything else. *)
    QCheck.Test.make ~name:"parser total on garbage" ~count:1000
      QCheck.(string_gen_of_size Gen.(0 -- 80) Gen.printable)
      (fun input ->
        match Parser.parse input with
        | _ -> true
        | exception Parser.Error _ -> true);
    QCheck.Test.make ~name:"parser total on tag soup" ~count:1000
      QCheck.(
        make
          Gen.(
            map (String.concat "")
              (list_size (0 -- 20)
                 (oneofl
                    [ "<a>"; "</a>"; "<b x=\"1\">"; "</b>"; "text"; "&lt;";
                      "&bogus;"; "<!--c-->"; "<![CDATA[z]]>"; "<?pi v?>"; "<";
                      ">"; "\""; "<!DOCTYPE r>"; "]]>"; "&#65;"; "&#xZZ;" ]))))
      (fun input ->
        match Parser.parse input with
        | _ -> true
        | exception Parser.Error _ -> true);
    QCheck.Test.make ~name:"pretty print/parse preserves elements" ~count:300
      gen_tree (fun e ->
        let reparsed = parse (Printer.element_to_string ~indent:2 e) in
        (* Pretty-printing may add whitespace text nodes; compare the
           element structure and the concatenated non-blank text. *)
        T.tags e = T.tags reparsed);
    QCheck.Test.make ~name:"xid label/strip identity" ~count:300 gen_tree
      (fun e ->
        let stripped = Xid.strip (Xid.label (Xid.gen ()) e) in
        T.equal_element e stripped);
    QCheck.Test.make ~name:"size >= depth" ~count:300 gen_tree (fun e ->
        T.size e >= T.depth e);
    (* Every prefix of a valid document: the parser must diagnose the
       truncation (or accept a still-complete prefix), never raise
       anything but Parser.Error and never hang. *)
    QCheck.Test.make ~name:"parser total on truncated documents" ~count:200
      gen_tree (fun e ->
        let printed = Printer.element_to_string e in
        let ok = ref true in
        for len = 0 to String.length printed - 1 do
          match Parser.parse (String.sub printed 0 len) with
          | _ -> ()
          | exception Parser.Error _ -> ()
          | exception _ -> ok := false
        done;
        !ok);
    qcheck_printer_equals_reference;
  ]

(* Table-driven malformed corpus: each entry must be *rejected* — a
   parser that silently accepts broken input would let corrupted pages
   (e.g. the crawler's [malformed] fault) into the warehouse. *)
let test_malformed_corpus_rejected () =
  let corpus =
    [
      ("unclosed tag", "<a><b></a>");
      ("never closed", "<a><b><c>");
      ("stray close", "</a>");
      ("bad entity", "<a>&nosuch;</a>");
      ("unterminated entity", "<a>&amp</a>");
      ("bad char ref", "<a>&#xZZ;</a>");
      ("stray cdata close", "<a>]]></a>");
      ("unterminated cdata", "<a><![CDATA[x</a>");
      ("unterminated comment", "<a><!-- never closed</a>");
      ("unterminated pi", "<a><?pi never closed</a>");
      ("attr without quotes", "<a x=1/>");
      ("attr without value", "<a x/>");
      ("raw < in attr", "<a x=\"<\"/>");
      ("duplicate root", "<a/><a/>");
      ("crawler mangle marker", "<a><b>text</b><&malformed]]></a>");
      ("mangled mid-tag", "<a><b</a>");
      ("empty input", "");
      ("whitespace only", "   \n\t ");
    ]
  in
  List.iter
    (fun (label, input) ->
      match Parser.parse input with
      | _ -> Alcotest.failf "%s: accepted %S" label input
      | exception Parser.Error _ -> ())
    corpus

(* The crawler's [malformed] fault point truncates a page and appends
   its marker; quarantine relies on the result never parsing as XML,
   wherever the cut lands. *)
let test_mangled_page_never_parses () =
  let printed =
    Printer.element_to_string
      (parse "<catalog><product><name>dx-100</name><price>120</price></product></catalog>")
  in
  for cut = 1 to String.length printed do
    let mangled = String.sub printed 0 cut ^ "<&malformed]]>" in
    match Parser.parse mangled with
    | _ -> Alcotest.failf "mangled page parsed at cut %d" cut
    | exception Parser.Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Content accessors *)

let test_text_content () =
  let e = parse "<a>one<b>two</b>three</a>" in
  checks "all text" "one two three" (T.text_content e)

let test_direct_text () =
  let e = parse "<a>one<b>two</b>three</a>" in
  checks "direct only" "one three" (T.direct_text e)

let test_size_depth () =
  let e = parse "<a><b><c>t</c></b><d/></a>" in
  checki "size" 5 (T.size e);
  checki "depth" 3 (T.depth e)

let test_tags_document_order () =
  let e = parse "<a><b/><c><b/><d/></c></a>" in
  Alcotest.(check (list string)) "distinct tags in order" [ "a"; "b"; "c"; "d" ]
    (T.tags e)

(* ------------------------------------------------------------------ *)
(* Paths *)

let museum =
  parse
    {|<culture>
  <museum><address>Amsterdam</address><painting><title>Nightwatch</title></painting></museum>
  <museum><address>Paris</address><painting><title>Joconde</title></painting></museum>
  <wing><museum><address>Amsterdam2</address></museum></wing>
</culture>|}

let titles path context =
  List.map (fun e -> T.text_content e) (Path.select (Path.parse path) context)

let test_path_child () =
  Alcotest.(check int) "museum children" 2
    (List.length (Path.select (Path.parse "museum") museum))

let test_path_descendant () =
  Alcotest.(check int) "all museums" 3
    (List.length (Path.select (Path.parse "//museum") museum))

let test_path_chained () =
  Alcotest.(check (list string)) "titles" [ "Nightwatch"; "Joconde" ]
    (titles "museum/painting/title" museum)

let test_path_descendant_step () =
  Alcotest.(check (list string)) "all titles" [ "Nightwatch"; "Joconde" ]
    (titles "//title" museum)

let test_path_wildcard () =
  Alcotest.(check int) "any child" 3
    (List.length (Path.select (Path.parse "*") museum))

let test_path_self () =
  match Path.select (Path.parse "self") museum with
  | [ e ] -> checkb "identity" true (e == museum)
  | _ -> Alcotest.fail "self must return the context"

let test_path_self_descendant () =
  Alcotest.(check int) "self//museum" 3
    (List.length (Path.select (Path.parse "self//museum") museum))

let test_path_roundtrip () =
  List.iter
    (fun s ->
      checks "to_string/parse" s (Path.to_string (Path.parse s)))
    [ "self"; "museum/painting"; "//title"; "museum//title"; "*/title" ]

let test_path_errors () =
  let fails s =
    match Path.parse s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected failure on " ^ s)
  in
  fails "a/";
  fails "/a";
  fails "a b/c"

(* ------------------------------------------------------------------ *)
(* XIDs *)

let test_xid_postorder_property () =
  (* A parent's XID is larger than every descendant's. *)
  let tree = Xid.label (Xid.gen ()) (parse "<a><b><c/>text</b><d/></a>") in
  let rec walk (t : Xid.tree) =
    List.iter
      (fun child ->
        match child with
        | Xid.Node sub ->
            checkb "parent larger" true (t.Xid.xid > sub.Xid.xid);
            walk sub
        | Xid.Data (id, _) -> checkb "parent larger than data" true (t.Xid.xid > id))
      t.Xid.children
  in
  walk tree

let test_xid_find () =
  let tree = Xid.label (Xid.gen ()) (parse "<a><b/><c/></a>") in
  (match Xid.find tree tree.Xid.xid with
  | Some t -> checkb "find root" true (t == tree)
  | None -> Alcotest.fail "root not found");
  Alcotest.(check bool) "missing xid" true (Xid.find tree 9999 = None)

let test_xid_gen_continues () =
  let g = Xid.gen () in
  let t1 = Xid.label g (parse "<a><b/></a>") in
  let t2 = Xid.label g (parse "<c/>") in
  checkb "fresh ids across labels" true (t2.Xid.xid > Xid.max_xid t1)

let test_xid_size () =
  let tree = Xid.label (Xid.gen ()) (parse "<a><b>x</b></a>") in
  checki "elements + data nodes" 3 (Xid.size tree)

(* ------------------------------------------------------------------ *)
(* DTD *)

let test_dtd_declared () =
  let doc = Parser.parse "<!DOCTYPE cat SYSTEM \"http://x/cat.dtd\"><cat/>" in
  let dtd = Dtd.of_doc doc in
  checks "name" "cat" dtd.Dtd.name;
  checks "identifier" "http://x/cat.dtd" (Dtd.identifier dtd)

let test_dtd_inferred_stable () =
  let doc1 = Parser.parse "<cat><item/><price/></cat>" in
  let doc2 = Parser.parse "<cat><price/><item/><item/></cat>" in
  (* Same tag vocabulary => same fingerprint, declared or not. *)
  checks "same fingerprint" (Dtd.identifier (Dtd.of_doc doc1))
    (Dtd.identifier (Dtd.of_doc doc2))

let test_dtd_inferred_differs () =
  let doc1 = Parser.parse "<cat><item/></cat>" in
  let doc2 = Parser.parse "<cat><other/></cat>" in
  checkb "different vocabulary" false
    (Dtd.identifier (Dtd.of_doc doc1) = Dtd.identifier (Dtd.of_doc doc2))

(* ------------------------------------------------------------------ *)
(* HTML tag soup *)

module Html = Xy_xml.Html

let test_html_basic () =
  let e = Html.parse "<html><body><p>Hello</p></body></html>" in
  checks "root" "html" e.T.tag;
  checks "text" "Hello" (T.text_content e)

let test_html_case_folding () =
  let e = Html.parse "<HTML><BODY CLASS=\"x\"><P>t</P></BODY></HTML>" in
  checks "root lowercased" "html" e.T.tag;
  let body = List.hd (T.children_elements e) in
  checks "body" "body" body.T.tag;
  Alcotest.(check (option string)) "attr lowercased" (Some "x") (T.attr body "class")

let test_html_void_elements () =
  let e = Html.parse "<div>one<br>two<img src=x>three</div>" in
  checks "text intact" "one two three" (T.text_content e);
  let div = List.hd (T.children_elements e) in
  checki "br and img are empty children" 2 (List.length (T.children_elements div))

let test_html_auto_close () =
  let e = Html.parse "<ul><li>a<li>b<li>c</ul>" in
  let ul = List.hd (Xy_xml.Path.select (Xy_xml.Path.parse "//ul") e) in
  checki "three siblings, not nested" 3 (List.length (T.children_elements ul));
  let e2 = Html.parse "<p>one<p>two" in
  checki "p auto-closes" 2
    (List.length (Xy_xml.Path.select (Xy_xml.Path.parse "//p") e2))

let test_html_unquoted_and_bare_attrs () =
  let e = Html.parse "<input type=checkbox checked>" in
  let input = List.hd (Xy_xml.Path.select (Xy_xml.Path.parse "//input") e) in
  Alcotest.(check (option string)) "unquoted" (Some "checkbox") (T.attr input "type");
  Alcotest.(check (option string)) "bare" (Some "") (T.attr input "checked")

let test_html_mismatched_tags_recovered () =
  let e = Html.parse "<div><b>bold</div></b>trailing" in
  checkb "text preserved" true
    (Xy_query.Eval.word_contains ~word:"bold" (T.text_content e)
    && Xy_query.Eval.word_contains ~word:"trailing" (T.text_content e))

let test_html_script_raw () =
  let input = "<body><script>if (a < b) { x = \"<p>\"; }</script>visible</body>" in
  let e = Html.parse input in
  checkb "script content not parsed as markup" true
    (Xy_xml.Path.select (Xy_xml.Path.parse "//p") e = []);
  checks "script excluded from text" "visible" (Html.text input)

let test_html_entities () =
  checks "known entities" "a < b & c"
    (Html.text "<p>a &lt; b &amp; c</p>");
  checkb "unknown entity passes through" true
    (Xy_query.Eval.word_contains ~word:"x" (Html.text "<p>&bogus; x</p>"))

let test_html_wraps_fragments () =
  let e = Html.parse "just text, no markup" in
  checks "wrapped" "html" e.T.tag;
  checks "content" "just text, no markup" (T.text_content e)

let test_html_total_on_garbage () =
  (* totality fuzz: never raises *)
  let prng = Xy_util.Prng.create ~seed:44 in
  for _ = 1 to 500 do
    let n = Xy_util.Prng.int prng 60 in
    let soup =
      String.concat ""
        (List.init n (fun _ ->
             Xy_util.Prng.pick_list prng
               [ "<"; ">"; "</"; "/>"; "<p"; "div"; "='x'"; "\""; "text"; "&";
                 "&amp;"; "<script>"; "</script>"; "<!--"; "-->"; " " ]))
    in
    ignore (Html.parse soup);
    ignore (Html.text soup)
  done

(* ------------------------------------------------------------------ *)
(* DTD declarations and validation *)

let catalog_with_subset =
  {|<!DOCTYPE catalog [
  <!ELEMENT catalog (product*)>
  <!ELEMENT product (name, price, desc?)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT price (#PCDATA)>
  <!ELEMENT desc (#PCDATA | b)*>
  <!ELEMENT b (#PCDATA)>
  <!ATTLIST product id ID #REQUIRED category CDATA #IMPLIED>
]>
<catalog><product id="p1"><name>tv</name><price>10</price></product></catalog>|}

let test_dtd_internal_subset_captured () =
  let doc = Parser.parse catalog_with_subset in
  match doc.T.doctype with
  | Some { T.internal_subset = Some subset; _ } ->
      checkb "contains declarations" true
        (Xy_query.Eval.word_contains ~word:"ELEMENT" subset)
  | _ -> Alcotest.fail "internal subset lost"

let test_dtd_subset_roundtrip () =
  let doc = Parser.parse catalog_with_subset in
  let doc2 = Parser.parse (Printer.doc_to_string doc) in
  match doc2.T.doctype with
  | Some { T.internal_subset = Some _; _ } -> ()
  | _ -> Alcotest.fail "subset lost in print/parse roundtrip"

let test_dtd_parse_declarations () =
  let doc = Parser.parse catalog_with_subset in
  let decls = Dtd.declarations_of_doc doc in
  checki "six element declarations" 6 (List.length decls.Dtd.elements);
  (match List.find_opt (fun d -> d.Dtd.decl_name = "catalog") decls.Dtd.elements with
  | Some { Dtd.model = Dtd.Children [ "product" ]; _ } -> ()
  | _ -> Alcotest.fail "catalog model");
  (match List.find_opt (fun d -> d.Dtd.decl_name = "name") decls.Dtd.elements with
  | Some { Dtd.model = Dtd.Pcdata; _ } -> ()
  | _ -> Alcotest.fail "name model");
  (match List.find_opt (fun d -> d.Dtd.decl_name = "desc") decls.Dtd.elements with
  | Some { Dtd.model = Dtd.Mixed [ "b" ]; _ } -> ()
  | _ -> Alcotest.fail "desc mixed model");
  checki "two attribute declarations" 2 (List.length decls.Dtd.attributes);
  match decls.Dtd.attributes with
  | [ id_attr; cat_attr ] ->
      checks "id on product" "product" id_attr.Dtd.attr_element;
      checkb "id required" true (id_attr.Dtd.attr_default = Dtd.Required);
      checkb "category implied" true (cat_attr.Dtd.attr_default = Dtd.Implied)
  | _ -> Alcotest.fail "attlist"

let test_dtd_validate_ok () =
  let doc = Parser.parse catalog_with_subset in
  let decls = Dtd.declarations_of_doc doc in
  Alcotest.(check (list string)) "valid document" []
    (List.map Dtd.violation_to_string (Dtd.validate decls doc.T.root))

let test_dtd_validate_violations () =
  let doc = Parser.parse catalog_with_subset in
  let decls = Dtd.declarations_of_doc doc in
  let bad =
    parse
      {|<catalog><product><name>tv</name><price>10</price><bogus/></product><junk/></catalog>|}
  in
  let violations = Dtd.validate decls bad in
  let strings = List.map Dtd.violation_to_string violations in
  checkb "missing required id" true
    (List.exists
       (fun v -> v = Dtd.Missing_required_attribute { element = "product"; attribute = "id" })
       violations);
  checkb "undeclared element" true
    (List.mem (Dtd.Undeclared_element "bogus") violations);
  checkb "unexpected child" true
    (List.exists
       (function Dtd.Unexpected_child { parent = "catalog"; child = "junk" } -> true | _ -> false)
       violations);
  checkb "human-readable" true (List.for_all (fun s -> String.length s > 0) strings)

let test_dtd_validate_text_rules () =
  let decls =
    Dtd.parse_declarations
      {|<!ELEMENT r (a)> <!ELEMENT a (#PCDATA)>|}
  in
  checkb "text in children-model element" true
    (List.mem (Dtd.Unexpected_text "r") (Dtd.validate decls (parse "<r>oops<a/></r>")));
  Alcotest.(check (list string)) "whitespace tolerated" []
    (List.map Dtd.violation_to_string
       (Dtd.validate decls (parse "<r>\n  <a>text ok</a>\n</r>")))

let test_dtd_no_declarations_trivially_valid () =
  let decls = Dtd.parse_declarations "" in
  Alcotest.(check (list string)) "no declarations" []
    (List.map Dtd.violation_to_string (Dtd.validate decls (parse "<anything><x/></anything>")))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xml"
    [
      ( "parser",
        [
          tc "simple" test_parse_simple;
          tc "attributes" test_parse_attributes;
          tc "entities" test_parse_entities;
          tc "numeric references" test_parse_numeric_refs;
          tc "cdata" test_parse_cdata;
          tc "comments and PIs" test_parse_comments_and_pi;
          tc "doctype SYSTEM" test_parse_doctype;
          tc "doctype PUBLIC" test_parse_doctype_public;
          tc "internal subset skipped" test_parse_internal_subset_skipped;
          tc "malformed inputs rejected" test_parse_errors;
          tc "error position" test_parse_mismatch_position;
        ] );
      ( "printer",
        [
          tc "roundtrip" test_print_roundtrip_simple;
          tc "escaping" test_print_escaping;
          tc "pretty printing" test_print_pretty_stable;
          tc "doc with doctype" test_print_doc_with_doctype;
        ] );
      ( "content",
        [
          tc "text_content" test_text_content;
          tc "direct_text" test_direct_text;
          tc "size and depth" test_size_depth;
          tc "tags in document order" test_tags_document_order;
        ] );
      ( "path",
        [
          tc "child step" test_path_child;
          tc "descendant axis" test_path_descendant;
          tc "chained steps" test_path_chained;
          tc "descendant step" test_path_descendant_step;
          tc "wildcard" test_path_wildcard;
          tc "self" test_path_self;
          tc "self//" test_path_self_descendant;
          tc "to_string roundtrip" test_path_roundtrip;
          tc "syntax errors" test_path_errors;
        ] );
      ( "xid",
        [
          tc "postorder numbering" test_xid_postorder_property;
          tc "find" test_xid_find;
          tc "generator continuity" test_xid_gen_continues;
          tc "size" test_xid_size;
        ] );
      ( "dtd",
        [
          tc "declared" test_dtd_declared;
          tc "inferred fingerprint stable" test_dtd_inferred_stable;
          tc "inferred fingerprint differs" test_dtd_inferred_differs;
          tc "internal subset captured" test_dtd_internal_subset_captured;
          tc "subset print/parse roundtrip" test_dtd_subset_roundtrip;
          tc "declarations parsed" test_dtd_parse_declarations;
          tc "validate: conforming document" test_dtd_validate_ok;
          tc "validate: violations" test_dtd_validate_violations;
          tc "validate: text rules" test_dtd_validate_text_rules;
          tc "validate: no declarations" test_dtd_no_declarations_trivially_valid;
        ] );
      ( "html",
        [
          tc "basic" test_html_basic;
          tc "case folding" test_html_case_folding;
          tc "void elements" test_html_void_elements;
          tc "auto close" test_html_auto_close;
          tc "unquoted and bare attributes" test_html_unquoted_and_bare_attrs;
          tc "mismatched tags recovered" test_html_mismatched_tags_recovered;
          tc "script raw text" test_html_script_raw;
          tc "entities" test_html_entities;
          tc "fragment wrapping" test_html_wraps_fragments;
          tc "total on garbage" test_html_total_on_garbage;
        ] );
      ( "malformed",
        [
          tc "corpus rejected" test_malformed_corpus_rejected;
          tc "mangled page never parses" test_mangled_page_never_parses;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
