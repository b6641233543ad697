module Atomic = Xy_events.Atomic
module Registry = Xy_events.Registry
module T = Xy_xml.Types
module Xid = Xy_xml.Xid
module SS = Set.Make (String)

(* WordTable: word -> TagTable: tag -> codes (paper Figure 8).  One
   instance for [contains], one for [strict contains]. *)
module Word_table = struct
  type t = (string, (string, int list ref) Hashtbl.t) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let add (t : t) ~word ~tag code =
    let tags =
      match Hashtbl.find_opt t word with
      | Some tags -> tags
      | None ->
          let tags = Hashtbl.create 4 in
          Hashtbl.replace t word tags;
          tags
    in
    match Hashtbl.find_opt tags tag with
    | Some codes -> codes := code :: !codes
    | None -> Hashtbl.replace tags tag (ref [ code ])

  let remove (t : t) ~word ~tag code =
    match Hashtbl.find_opt t word with
    | None -> ()
    | Some tags -> (
        match Hashtbl.find_opt tags tag with
        | None -> ()
        | Some codes ->
            codes := List.filter (fun c -> c <> code) !codes;
            if !codes = [] then Hashtbl.remove tags tag;
            if Hashtbl.length tags = 0 then Hashtbl.remove t word)

  let interesting (t : t) word = Hashtbl.mem t word

  let codes (t : t) ~word ~tag =
    match Hashtbl.find_opt t word with
    | None -> []
    | Some tags -> (
        match Hashtbl.find_opt tags tag with Some codes -> !codes | None -> [])
end

(* Change-pattern conditions, indexed by status then tag: the number
   of changed elements per document is small, so a per-tag list
   suffices. *)
type change_condition = { cc_code : int; word : (Atomic.scope * string) option }

type t = {
  tag_only : (string, int list ref) Hashtbl.t;  (** self\\tag *)
  contains : Word_table.t;
  strict : Word_table.t;
  doc_words : (string, int list ref) Hashtbl.t;  (** self contains w *)
  changes : (Atomic.status * string, change_condition list ref) Hashtbl.t;
  mutable count : int;
}

let multi_add table key code =
  match Hashtbl.find_opt table key with
  | Some codes -> codes := code :: !codes
  | None -> Hashtbl.replace table key (ref [ code ])

let multi_remove table key code =
  match Hashtbl.find_opt table key with
  | None -> ()
  | Some codes ->
      codes := List.filter (fun c -> c <> code) !codes;
      if !codes = [] then Hashtbl.remove table key

let multi_find table key =
  match Hashtbl.find_opt table key with Some codes -> !codes | None -> []

let words_of = Xy_query.Eval.words_of

let index t code condition =
  match condition with
  | Atomic.Has_tag tag -> multi_add t.tag_only tag code
  | Atomic.Doc_contains word ->
      multi_add t.doc_words (String.lowercase_ascii word) code
  | Atomic.Element { change = None; tag; word = None } ->
      multi_add t.tag_only tag code
  | Atomic.Element { change = None; tag; word = Some (scope, word) } ->
      let table = match scope with Atomic.Anywhere -> t.contains | Atomic.Strict -> t.strict in
      Word_table.add table ~word:(String.lowercase_ascii word) ~tag code
  | Atomic.Element { change = Some status; tag; word } -> (
      let key = (status, tag) in
      let cc = { cc_code = code; word } in
      match Hashtbl.find_opt t.changes key with
      | Some conditions -> conditions := cc :: !conditions
      | None -> Hashtbl.replace t.changes key (ref [ cc ]))
  | Atomic.Url_equals _ | Atomic.Url_extends _ | Atomic.Filename_equals _
  | Atomic.Docid_equals _ | Atomic.Dtdid_equals _ | Atomic.Dtd_equals _
  | Atomic.Domain_equals _ | Atomic.Last_accessed _ | Atomic.Last_updated _
  | Atomic.Doc_status _ ->
      ()

let unindex t code condition =
  match condition with
  | Atomic.Has_tag tag -> multi_remove t.tag_only tag code
  | Atomic.Doc_contains word ->
      multi_remove t.doc_words (String.lowercase_ascii word) code
  | Atomic.Element { change = None; tag; word = None } ->
      multi_remove t.tag_only tag code
  | Atomic.Element { change = None; tag; word = Some (scope, word) } ->
      let table = match scope with Atomic.Anywhere -> t.contains | Atomic.Strict -> t.strict in
      Word_table.remove table ~word:(String.lowercase_ascii word) ~tag code
  | Atomic.Element { change = Some status; tag; word = _ } -> (
      match Hashtbl.find_opt t.changes (status, tag) with
      | None -> ()
      | Some conditions ->
          conditions := List.filter (fun cc -> cc.cc_code <> code) !conditions;
          if !conditions = [] then Hashtbl.remove t.changes (status, tag))
  | Atomic.Url_equals _ | Atomic.Url_extends _ | Atomic.Filename_equals _
  | Atomic.Docid_equals _ | Atomic.Dtdid_equals _ | Atomic.Dtd_equals _
  | Atomic.Domain_equals _ | Atomic.Last_accessed _ | Atomic.Last_updated _
  | Atomic.Doc_status _ ->
      ()

let handles condition =
  match Atomic.alerter condition with
  | Atomic.Xml_kind -> true
  | Atomic.Html_kind -> (
      (* [self contains w] also applies to XML documents. *)
      match condition with Atomic.Doc_contains _ -> true | _ -> false)
  | Atomic.Url_kind -> false

let create registry =
  let t =
    {
      tag_only = Hashtbl.create 256;
      contains = Word_table.create ();
      strict = Word_table.create ();
      doc_words = Hashtbl.create 256;
      changes = Hashtbl.create 64;
      count = 0;
    }
  in
  Registry.iter
    (fun code condition ->
      if handles condition then begin
        index t code condition;
        t.count <- t.count + 1
      end)
    registry;
  Registry.on_change registry (fun change ->
      match change with
      | `Added (code, condition) when handles condition ->
          index t code condition;
          t.count <- t.count + 1
      | `Removed (code, condition) when handles condition ->
          unindex t code condition;
          t.count <- t.count - 1
      | `Added _ | `Removed _ -> ());
  t

type detection = { codes : int list; data : (int * T.element list) list }

(* --- current-content detection (paper's postfix algorithm) -------- *)

(* Visit an element bottom-up, carrying the set of "interesting" words
   of the subtree (words present in the contains WordTable).  Strict
   words are checked against the direct data children only. *)
let detect_current t (root : T.element) acc =
  let fire code = acc := code :: !acc in
  let rec visit (e : T.element) : SS.t =
    let subtree_words = ref SS.empty in
    let direct_words = ref [] in
    List.iter
      (fun node ->
        match node with
        | T.Element child -> subtree_words := SS.union !subtree_words (visit child)
        | T.Text s | T.Cdata s -> direct_words := words_of s :: !direct_words
        | T.Comment _ | T.Pi _ -> ())
      e.T.children;
    let direct_words = List.concat (List.rev !direct_words) in
    (* strict contains: direct data only *)
    List.iter
      (fun word ->
        List.iter fire (Word_table.codes t.strict ~word ~tag:e.T.tag);
        (* accumulate interesting words for ancestors *)
        if Word_table.interesting t.contains word then
          subtree_words := SS.add word !subtree_words;
        (* document-level contains *)
        List.iter fire (multi_find t.doc_words word))
      direct_words;
    (* contains: anywhere in the subtree *)
    SS.iter
      (fun word -> List.iter fire (Word_table.codes t.contains ~word ~tag:e.T.tag))
      !subtree_words;
    (* bare tag conditions *)
    List.iter fire (multi_find t.tag_only e.T.tag);
    !subtree_words
  in
  ignore (visit root)

(* --- change-pattern detection ------------------------------------- *)

let element_word_holds element = function
  | None -> true
  | Some (Atomic.Anywhere, word) ->
      Xy_query.Eval.word_contains ~word (T.text_content element)
  | Some (Atomic.Strict, word) ->
      Xy_query.Eval.word_contains ~word (T.direct_text element)

let fire_changes t status (element : T.element) acc data =
  match Hashtbl.find_opt t.changes (status, element.T.tag) with
  | None -> ()
  | Some conditions ->
      List.iter
        (fun cc ->
          if element_word_holds element cc.word then begin
            acc := cc.cc_code :: !acc;
            data := (cc.cc_code, element) :: !data
          end)
        !conditions

let detect_changes t (result : Xy_warehouse.Loader.result) acc data =
  if result.Xy_warehouse.Loader.delta = [] then ()
  else begin
    let summary = Xy_diff.Delta.summary result.Xy_warehouse.Loader.delta in
    (* Every element of an inserted subtree is new. *)
    List.iter
      (fun tree ->
        if tree.Xid.tag <> "#text" then
          T.iter_elements
            (fun e -> fire_changes t Atomic.New e acc data)
            (Xid.strip tree))
      summary.Xy_diff.Delta.inserted;
    List.iter
      (fun tree ->
        if tree.Xid.tag <> "#text" then
          T.iter_elements
            (fun e -> fire_changes t Atomic.Deleted e acc data)
            (Xid.strip tree))
      summary.Xy_diff.Delta.deleted;
    (* Updated: elements of the new version whose subtree contains a
       change point (ancestors included). *)
    match result.Xy_warehouse.Loader.tree with
    | None -> ()
    | Some new_tree ->
        let touched = Hashtbl.create 16 in
        List.iter
          (fun xid -> Hashtbl.replace touched xid ())
          summary.Xy_diff.Delta.updated_xids;
        let is_touched xid = Hashtbl.mem touched xid in
        let rec walk (tree : Xid.tree) : bool =
          let children_touched =
            List.fold_left
              (fun any child ->
                match child with
                | Xid.Node sub -> walk sub || any
                | Xid.Data _ -> any)
              false tree.Xid.children
          in
          let self_touched = children_touched || is_touched tree.Xid.xid in
          if self_touched then
            fire_changes t Atomic.Updated (Xid.strip tree) acc data;
          self_touched
        in
        ignore (walk new_tree)
  end

let finish acc data =
  let codes = List.sort_uniq compare !acc in
  let by_code = Hashtbl.create 8 in
  List.iter
    (fun (code, element) ->
      match Hashtbl.find_opt by_code code with
      | Some elements -> elements := element :: !elements
      | None -> Hashtbl.replace by_code code (ref [ element ]))
    !data;
  let data =
    Hashtbl.fold (fun code elements acc -> (code, !elements) :: acc) by_code []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { codes; data }

let detect t ~result =
  let acc = ref [] and data = ref [] in
  (match result.Xy_warehouse.Loader.tree with
  | Some tree -> detect_current t (Xid.strip tree) acc
  | None -> ());
  detect_changes t result acc data;
  finish acc data

let detect_delta t ~result =
  let acc = ref [] and data = ref [] in
  detect_changes t result acc data;
  finish acc data

let detect_tree t root =
  let acc = ref [] in
  detect_current t root acc;
  List.sort_uniq compare !acc

let detect_deleted t ~tree =
  let acc = ref [] and data = ref [] in
  T.iter_elements
    (fun e -> fire_changes t Atomic.Deleted e acc data)
    (Xid.strip tree);
  finish acc data

let condition_count t = t.count
