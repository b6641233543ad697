(* Tests for xy_query: lexer, parser, evaluation on the paper's
   examples, word-contains semantics, result deltas. *)

module T = Xy_xml.Types
module Parser = Xy_query.Parser
module Ast = Xy_query.Ast
module Eval = Xy_query.Eval
module Lexer = Xy_query.Lexer
module Result_delta = Xy_query.Result_delta
module Printer = Xy_xml.Printer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let parse_xml = Xy_xml.Parser.parse_element

let render nodes =
  String.concat ""
    (List.map
       (function
         | T.Element e -> Printer.element_to_string e
         | T.Text s -> s
         | T.Cdata s -> s
         | T.Comment _ | T.Pi _ -> "")
       nodes)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_tokens () =
  let lexer = Lexer.create {|select <Page url=URL/> where x != 3 % comment
 and y = ``quoted'' // b \\ tag|} in
  let rec drain acc =
    match Lexer.next lexer with
    | Lexer.Eof -> List.rev acc
    | token -> drain (Lexer.token_to_string token :: acc)
  in
  Alcotest.(check (list string)) "tokens"
    [
      "select"; "<"; "Page"; "url"; "="; "URL"; "/>"; "where"; "x"; "!="; "3";
      "and"; "y"; "="; "\"quoted\""; "//"; "b"; "\\\\"; "tag";
    ]
    (drain [])

let test_lexer_peek_stable () =
  let lexer = Lexer.create "a b" in
  checkb "peek twice" true (Lexer.peek lexer = Lexer.peek lexer);
  checkb "next after peek" true (Lexer.next lexer = Lexer.Ident "a")

let test_lexer_comment_only () =
  let lexer = Lexer.create "% just a comment\n" in
  checkb "eof" true (Lexer.next lexer = Lexer.Eof)

let test_lexer_error () =
  let lexer = Lexer.create "@" in
  match Lexer.next lexer with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected lexer error"

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_paper_query () =
  let q =
    Parser.parse
      {|select p/title
        from culture/museum m, m/painting p
        where m/address contains "Amsterdam"|}
  in
  checki "two bindings" 2 (List.length q.Ast.from);
  (match q.Ast.from with
  | [ m; p ] ->
      checks "m" "m" m.Ast.var;
      Alcotest.(check (option string)) "m from context" None m.Ast.base;
      checks "p" "p" p.Ast.var;
      Alcotest.(check (option string)) "p rooted at m" (Some "m") p.Ast.base
  | _ -> Alcotest.fail "bindings");
  checki "one condition" 1 (List.length q.Ast.where)

let test_parse_select_late_binding () =
  (* select X from self//Member X: X is bound after being used. *)
  let q = Parser.parse "select X from self//Member X" in
  match q.Ast.select with
  | Ast.S_operand (Ast.O_path (Some "X", [])) -> ()
  | _ -> Alcotest.fail "select X must resolve to the variable"

let test_parse_construct () =
  let q = Parser.parse {|select <UpdatedPage url=URL kind="xml"/>|} in
  match q.Ast.select with
  | Ast.S_construct (Ast.K_element ("UpdatedPage", attrs, [])) ->
      checki "two attrs" 2 (List.length attrs);
      (match List.assoc "url" attrs with
      | Ast.O_path (None, path) ->
          (* URL is unbound here: it stays a context path; binding
             happens at evaluation time via pseudo-variables when the
             caller pre-binds it. *)
          checks "url path" "URL" (Xy_xml.Path.to_string path)
      | _ -> Alcotest.fail "url attr");
      (match List.assoc "kind" attrs with
      | Ast.O_const "xml" -> ()
      | _ -> Alcotest.fail "kind attr")
  | _ -> Alcotest.fail "expected a construct"

let test_parse_construct_nested () =
  let q =
    Parser.parse {|select <Report name="r"><Body>p/title</Body>"done"</Report>|}
  in
  match q.Ast.select with
  | Ast.S_construct (Ast.K_element ("Report", _, [ Ast.K_element ("Body", [], _); Ast.K_text "done" ]))
    ->
      ()
  | _ -> Alcotest.fail "expected nested construct"

let test_parse_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("expected parse error on: " ^ s)
  in
  fails "from a b";
  fails "select";
  fails "select a where";
  fails "select <A></B>";
  fails "select a extra"

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let culture =
  parse_xml
    {|<culture>
  <museum><address>Amsterdam</address>
    <painting><title>Nightwatch</title></painting>
    <painting><title>Milkmaid</title></painting>
  </museum>
  <museum><address>Paris</address>
    <painting><title>Joconde</title></painting>
  </museum>
</culture>|}

let test_eval_paper_query () =
  let q =
    Parser.parse
      {|select p/title
        from museum m, m/painting p
        where m/address contains "Amsterdam"|}
  in
  let nodes = Eval.eval q (Eval.env culture) in
  checks "Amsterdam titles" "<title>Nightwatch</title><title>Milkmaid</title>"
    (render nodes)

let test_eval_no_match () =
  let q =
    Parser.parse
      {|select p/title from museum m, m/painting p where m/address contains "Berlin"|}
  in
  checki "empty" 0 (List.length (Eval.eval q (Eval.env culture)))

let test_eval_without_from () =
  let q = Parser.parse "select //title" in
  checki "all titles" 3 (List.length (Eval.eval q (Eval.env culture)))

let test_eval_construct_with_pseudo_var () =
  let q = Parser.parse "select <UpdatedPage url=URL/>" in
  let env = Eval.env ~strings:[ ("URL", "http://inria.fr/Xy/") ] culture in
  checks "constructed" {|<UpdatedPage url="http://inria.fr/Xy/"/>|}
    (render (Eval.eval q env))

let test_eval_eq_condition () =
  let q =
    Parser.parse
      {|select m/address from museum m where m/address = "Paris"|}
  in
  checks "paris" "<address>Paris</address>" (render (Eval.eval q (Eval.env culture)))

let test_eval_neq_condition () =
  let q =
    Parser.parse {|select m/address from museum m where m/address != "Paris"|}
  in
  checks "not paris" "<address>Amsterdam</address>"
    (render (Eval.eval q (Eval.env culture)))

let test_eval_unbound_variable () =
  let q = Parser.parse "select Z" in
  match Eval.eval q (Eval.env culture) with
  | exception Eval.Unbound_variable _ -> ()
  | nodes ->
      (* "Z" parses as a context path selecting <Z> children: there are
         none, so this evaluates to empty rather than raising. *)
      checki "no Z children" 0 (List.length nodes)

let test_eval_wrapped () =
  let q = Parser.parse "select //title from museum m where m/address contains \"Paris\"" in
  let wrapped = Eval.eval_wrapped ~name:"ParisTitles" q (Eval.env culture) in
  checks "wrapper" "ParisTitles" wrapped.T.tag

let test_eval_cross_product () =
  (* Two independent bindings produce the cross product. *)
  let q = Parser.parse "select <Pair>a/v b/v</Pair> from x a, y b" in
  let doc = parse_xml "<r><x><v>1</v></x><x><v>2</v></x><y><v>8</v></y></r>" in
  checki "2x1 pairs" 2 (List.length (Eval.eval q (Eval.env doc)))

let test_eval_distinct () =
  (* The paper's report-query use case: remove duplicate UpdatedPage
     urls from the notification stream. *)
  let notifications =
    parse_xml
      {|<Notifications>
  <UpdatedPage url="http://a/"/>
  <UpdatedPage url="http://b/"/>
  <UpdatedPage url="http://a/"/>
  <UpdatedPage url="http://a/"/>
</Notifications>|}
  in
  let plain = Parser.parse "select //UpdatedPage" in
  let distinct = Parser.parse "select distinct //UpdatedPage" in
  checki "duplicates kept" 4 (List.length (Eval.eval plain (Eval.env notifications)));
  checki "duplicates removed" 2
    (List.length (Eval.eval distinct (Eval.env notifications)));
  checkb "flag parsed" true distinct.Ast.distinct;
  checkb "not set by default" false plain.Ast.distinct

let test_eval_distinct_preserves_order () =
  let doc = parse_xml "<r><v>b</v><v>a</v><v>b</v><v>c</v></r>" in
  let q = Parser.parse "select distinct //v" in
  checks "first occurrences in order" "<v>b</v><v>a</v><v>c</v>"
    (render (Eval.eval q (Eval.env doc)))

(* ------------------------------------------------------------------ *)
(* word_contains *)

let test_word_contains () =
  checkb "word match" true (Eval.word_contains ~word:"camera" "a digital camera here");
  checkb "case-insensitive" true (Eval.word_contains ~word:"Camera" "CAMERA!");
  checkb "substring is not a word" false (Eval.word_contains ~word:"cam" "camera");
  checkb "word at start" true (Eval.word_contains ~word:"xml" "xml rocks");
  checkb "word at end" true (Eval.word_contains ~word:"xml" "we like xml");
  checkb "punctuation boundary" true (Eval.word_contains ~word:"xml" "(xml)");
  checkb "empty word" false (Eval.word_contains ~word:"" "anything");
  checkb "missing" false (Eval.word_contains ~word:"sgml" "we like xml")

(* [word_contains] as it was defined before it scanned in place: a
   lowered copy of both strings, compared by [String.sub] at every
   position.  The reference the property below holds it to. *)
let reference_word_contains ~word text =
  let is_word_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || Char.code c >= 0x80
  in
  let word = String.lowercase_ascii word and text = String.lowercase_ascii text in
  let wlen = String.length word and tlen = String.length text in
  if wlen = 0 then false
  else
    let rec scan i =
      if i + wlen > tlen then false
      else if
        String.sub text i wlen = word
        && (i = 0 || not (is_word_char text.[i - 1]))
        && (i + wlen = tlen || not (is_word_char text.[i + wlen]))
      then true
      else scan (i + 1)
    in
    scan 0

(* Texts over upper and lower case, digits, [_], spaces, punctuation
   and bytes >= 0x80; words drawn empty, as the whole text, as a piece
   of it with its case flipped (phrases of several words included), or
   at random. *)
let word_in_text =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (6, oneofl [ 'a'; 'b'; 'A'; 'B'; 'z'; 'Z' ]);
        (2, oneofl [ '0'; '9'; '_' ]);
        (3, oneofl [ ' '; ' '; '-'; '.'; '!' ]);
        (1, map Char.chr (int_range 0x80 0xff));
      ]
  in
  let text = string_size ~gen:byte (0 -- 20) in
  let flip s =
    String.map
      (fun c ->
        if Char.lowercase_ascii c = c then Char.uppercase_ascii c
        else Char.lowercase_ascii c)
      s
  in
  let piece text =
    let n = String.length text in
    int_bound n >>= fun i ->
    int_bound (n - i) >>= fun len ->
    bool >|= fun flipped ->
    let s = String.sub text i len in
    if flipped then flip s else s
  in
  text >>= fun text ->
  frequency
    [
      (1, return "");
      (1, return text);
      (6, piece text);
      (2, string_size ~gen:byte (1 -- 4));
    ]
  >|= fun word -> (word, text)

let qcheck_word_contains =
  QCheck.Test.make ~name:"word_contains = its reference" ~count:2000
    (QCheck.make ~print:(fun (w, t) -> Printf.sprintf "word %S in %S" w t) word_in_text)
    (fun (word, text) ->
      Eval.word_contains ~word text = reference_word_contains ~word text)

(* ------------------------------------------------------------------ *)
(* Which queries split by document *)

let test_by_document () =
  let domain text = Eval.by_document (Parser.parse text) in
  let check_domain name expected text =
    Alcotest.(check (option string)) name expected (domain text)
  in
  check_domain "document roots of a domain" (Some "commerce")
    {|select p/name from commerce/catalog c, c/product p where p/desc contains "red"|};
  check_domain "a descendant second step" (Some "commerce")
    "select distinct p from commerce//product p";
  check_domain "a construct over variables" (Some "culture")
    "select <t n=m/name>p/title</t> from culture/museum m, m/painting p";
  check_domain "a one-step first binding" None "select c from commerce c";
  check_domain "a descendant first step" None "select c from self//catalog c";
  check_domain "a wildcard first step" None "select c from self/*/catalog c";
  check_domain "a second binding from the view" None
    "select m from commerce/catalog c, culture/museum m";
  check_domain "a where operand from the view" None
    {|select c from commerce/catalog c where commerce//desc contains "red"|};
  check_domain "a select operand from the view" None
    "select commerce/catalog from commerce/catalog c";
  check_domain "a construct attribute from the view" None
    "select <t n=culture/museum/name/> from commerce/catalog c";
  check_domain "no from clause" None "select //title"

(* ------------------------------------------------------------------ *)
(* Result deltas *)

let test_result_delta_first_then_changes () =
  let tracker = Result_delta.create ~name:"AmsterdamPaintings" in
  let r1 = parse_xml "<AmsterdamPaintings><title>A</title></AmsterdamPaintings>" in
  (match Result_delta.update tracker r1 with
  | Result_delta.First e -> checks "first is full answer" "AmsterdamPaintings" e.T.tag
  | _ -> Alcotest.fail "expected First");
  (match Result_delta.update tracker r1 with
  | Result_delta.Unchanged -> ()
  | _ -> Alcotest.fail "expected Unchanged");
  let r2 =
    parse_xml
      "<AmsterdamPaintings><title>A</title><title>B</title></AmsterdamPaintings>"
  in
  (match Result_delta.update tracker r2 with
  | Result_delta.Changed delta ->
      checks "delta doc" "AmsterdamPaintings-delta" delta.T.tag;
      checki "one op" 1 (List.length (T.children_elements delta));
      checks "inserted" "inserted" (List.hd (T.children_elements delta)).T.tag
  | _ -> Alcotest.fail "expected Changed");
  match Result_delta.current tracker with
  | Some current -> checkb "current tracks latest" true (T.equal_element current r2)
  | None -> Alcotest.fail "expected current"

let test_result_delta_deletion () =
  let tracker = Result_delta.create ~name:"Q" in
  ignore (Result_delta.update tracker (parse_xml "<Q><x>1</x><x>2</x></Q>"));
  match Result_delta.update tracker (parse_xml "<Q><x>2</x></Q>") with
  | Result_delta.Changed delta ->
      let ops = T.children_elements delta in
      checkb "has deleted op" true (List.exists (fun e -> e.T.tag = "deleted") ops)
  | _ -> Alcotest.fail "expected Changed"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "query"
    [
      ( "lexer",
        [
          tc "token stream" test_lexer_tokens;
          tc "peek stable" test_lexer_peek_stable;
          tc "comment only" test_lexer_comment_only;
          tc "error" test_lexer_error;
        ] );
      ( "parser",
        [
          tc "paper museum query" test_parse_paper_query;
          tc "late-bound select variable" test_parse_select_late_binding;
          tc "construct with attrs" test_parse_construct;
          tc "nested construct" test_parse_construct_nested;
          tc "errors" test_parse_errors;
        ] );
      ( "eval",
        [
          tc "paper museum query" test_eval_paper_query;
          tc "no match" test_eval_no_match;
          tc "without from" test_eval_without_from;
          tc "construct with pseudo-variable" test_eval_construct_with_pseudo_var;
          tc "equality" test_eval_eq_condition;
          tc "inequality" test_eval_neq_condition;
          tc "unbound variable" test_eval_unbound_variable;
          tc "wrapped" test_eval_wrapped;
          tc "cross product" test_eval_cross_product;
          tc "distinct" test_eval_distinct;
          tc "distinct preserves order" test_eval_distinct_preserves_order;
        ] );
      ( "word-contains",
        [
          tc "semantics" test_word_contains;
          QCheck_alcotest.to_alcotest qcheck_word_contains;
        ] );
      ("by-document", [ tc "decomposable queries" test_by_document ]);
      ( "result delta",
        [
          tc "first/unchanged/changed" test_result_delta_first_then_changes;
          tc "deletion" test_result_delta_deletion;
        ] );
    ]
