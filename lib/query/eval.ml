module T = Xy_xml.Types
module Path = Xy_xml.Path

type env = { context : T.element; strings : (string * string) list }

let env ?(strings = []) context = { context; strings }

exception Unbound_variable of string

type value = V_el of T.element | V_str of string

let value_text = function V_el e -> T.text_content e | V_str s -> s

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || Char.code c >= 0x80

let words_of text =
  let text = String.lowercase_ascii text in
  let words = ref [] in
  let buf = Buffer.create 16 in
  let flush_word () =
    if Buffer.length buf > 0 then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c -> if is_word_char c then Buffer.add_char buf c else flush_word ())
    text;
  flush_word ();
  List.rev !words

(* Whether [word] is at [text.[i]], ignoring ASCII case: both are read
   in place. *)
let rec matches_at ~word text i k =
  k = String.length word
  || Char.lowercase_ascii text.[i + k] = Char.lowercase_ascii word.[k]
     && matches_at ~word text i (k + 1)

(* Whether [word] occurs at or after [text.[i]], starting and ending at
   a word boundary.  Nothing is allocated. *)
let rec word_from ~word text i =
  let wlen = String.length word and tlen = String.length text in
  i + wlen <= tlen
  && ((i = 0 || not (is_word_char text.[i - 1]))
      && matches_at ~word text i 0
      && (i + wlen = tlen || not (is_word_char text.[i + wlen]))
     || word_from ~word text (i + 1))

let word_contains ~word text = word <> "" && word_from ~word text 0

(* Evaluate an operand to a list of values under element bindings. *)
let eval_operand env bindings operand =
  match operand with
  | Ast.O_const s -> [ V_str s ]
  | Ast.O_path (None, [ { Path.axis = Path.Child; tag = Some name } ])
    when List.mem_assoc name env.strings ->
      (* A bare identifier bound as a pseudo-variable (URL, ...)
         denotes that string, not a child element. *)
      [ V_str (List.assoc name env.strings) ]
  | Ast.O_path (None, path) ->
      List.map (fun e -> V_el e) (Path.select path env.context)
  | Ast.O_path (Some var, path) -> (
      match List.assoc_opt var bindings with
      | Some element ->
          if path = [] then [ V_el element ]
          else List.map (fun e -> V_el e) (Path.select path element)
      | None -> (
          match List.assoc_opt var env.strings with
          | Some s when path = [] -> [ V_str s ]
          | Some _ -> raise (Unbound_variable (var ^ " (path on string)"))
          | None -> raise (Unbound_variable var)))

let eval_condition env bindings condition =
  match condition with
  | Ast.C_contains (op, word) ->
      List.exists
        (fun v -> word_contains ~word (value_text v))
        (eval_operand env bindings op)
  | Ast.C_eq (a, b) ->
      let va = eval_operand env bindings a and vb = eval_operand env bindings b in
      List.exists
        (fun x -> List.exists (fun y -> value_text x = value_text y) vb)
        va
  | Ast.C_neq (a, b) ->
      let va = eval_operand env bindings a and vb = eval_operand env bindings b in
      List.exists
        (fun x -> List.exists (fun y -> value_text x <> value_text y) vb)
        va

let rec eval_construct env bindings construct =
  match construct with
  | Ast.K_text s -> [ T.Text s ]
  | Ast.K_operand op ->
      List.map
        (fun v ->
          match v with V_el e -> T.Element e | V_str s -> T.Text s)
        (eval_operand env bindings op)
  | Ast.K_element (tag, attr_templates, children) ->
      let attrs =
        List.map
          (fun (name, op) ->
            let value =
              match eval_operand env bindings op with
              | [] -> ""
              | v :: _ -> value_text v
            in
            (name, value))
          attr_templates
      in
      let child_nodes = List.concat_map (eval_construct env bindings) children in
      [ T.el tag ~attrs child_nodes ]

let eval_select env bindings select =
  match select with
  | Ast.S_operand op ->
      List.map
        (fun v ->
          match v with V_el e -> T.Element e | V_str s -> T.Text s)
        (eval_operand env bindings op)
  | Ast.S_construct k -> eval_construct env bindings k

(* Nested-loop instantiation of the from clause. *)
let rec instantiate env bindings = function
  | [] -> [ bindings ]
  | { Ast.var; base; path } :: rest ->
      let roots =
        match base with
        | None -> [ env.context ]
        | Some v -> (
            match List.assoc_opt v bindings with
            | Some e -> [ e ]
            | None -> raise (Unbound_variable v))
      in
      List.concat_map
        (fun root ->
          List.concat_map
            (fun e -> instantiate env ((var, e) :: bindings) rest)
            (Path.select path root))
        roots

let equal_node a b =
  match a, b with
  | T.Element ea, T.Element eb -> T.equal_element ea eb
  | (T.Text sa | T.Cdata sa), (T.Text sb | T.Cdata sb) -> sa = sb
  | T.Comment ca, T.Comment cb -> ca = cb
  | T.Pi (ta, ca), T.Pi (tb, cb) -> ta = tb && ca = cb
  | _, _ -> false

let distinct nodes =
  let rec go seen = function
    | [] -> []
    | node :: rest ->
        if List.exists (equal_node node) seen then go seen rest
        else node :: go (node :: seen) rest
  in
  go [] nodes

let eval query env =
  let candidate_bindings = instantiate env [] query.Ast.from in
  let results =
    List.concat_map
      (fun bindings ->
        if List.for_all (eval_condition env bindings) query.Ast.where then
          eval_select env bindings query.Ast.select
        else [])
      candidate_bindings
  in
  if query.Ast.distinct then distinct results else results

(* With no pseudo-variables, an operand without a variable is a path
   from the context itself, which spans every document. *)
let from_context = function
  | Ast.O_path (None, _) -> true
  | Ast.O_path (Some _, _) | Ast.O_const _ -> false

let rec construct_from_context = function
  | Ast.K_text _ -> false
  | Ast.K_operand op -> from_context op
  | Ast.K_element (_, attrs, children) ->
      List.exists (fun (_, op) -> from_context op) attrs
      || List.exists construct_from_context children

let condition_from_context = function
  | Ast.C_contains (op, _) -> from_context op
  | Ast.C_eq (a, b) | Ast.C_neq (a, b) -> from_context a || from_context b

(* The first binding's first step picks one domain element and its
   second the nodes of that domain's documents, so every binding, and
   every operand rooted at one, stays inside one document. *)
let by_document (query : Ast.t) =
  match query.Ast.from with
  | { Ast.base = None; path = { Path.axis = Path.Child; tag = Some domain } :: _ :: _; _ }
    :: rest
    when List.for_all (fun b -> b.Ast.base <> None) rest
         && not (List.exists condition_from_context query.Ast.where)
         && not
              (match query.Ast.select with
              | Ast.S_operand op -> from_context op
              | Ast.S_construct k -> construct_from_context k) ->
      Some domain
  | _ -> None

let eval_wrapped ~name query env = T.element name (eval query env)
