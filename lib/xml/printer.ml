(* Printing allocates its buffer, sized from the tree beforehand, and
   the result: nothing per node.  The walks below are top-level
   recursive functions rather than closures, and escaping writes runs
   of plain bytes straight into the buffer. *)

let entity ~quotes = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' when quotes -> "&quot;"
  | '\'' when quotes -> "&apos;"
  | _ -> ""

(* [s] from [start] on, escaped; [s.[start..i-1]] needs no escape. *)
let rec add_escaped buf ~quotes s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let e = entity ~quotes (String.unsafe_get s i) in
    if String.length e = 0 then add_escaped buf ~quotes s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      Buffer.add_string buf e;
      add_escaped buf ~quotes s (i + 1) (i + 1)
    end

let rec plain ~quotes s i =
  i = String.length s
  || (String.length (entity ~quotes (String.unsafe_get s i)) = 0
     && plain ~quotes s (i + 1))

let escape_generic ~quotes s =
  if plain ~quotes s 0 then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    add_escaped buf ~quotes s 0 0;
    Buffer.contents buf
  end

let escape_text = escape_generic ~quotes:false
let escape_attr = escape_generic ~quotes:true

let has_text_child e =
  List.exists
    (function Types.Text _ | Types.Cdata _ -> true | _ -> false)
    e.Types.children

(* The printed size before escaping, padding included when [indent] is
   [Some n] ([n >= 0]); [-1] stands for [None].  Siblings accumulate, so
   only the tree's depth is recursion depth. *)
let rec attrs_size acc = function
  | [] -> acc
  | (name, value) :: rest ->
      attrs_size (acc + String.length name + String.length value + 4) rest

let rec element_size ~indent level acc e =
  let tag = String.length e.Types.tag in
  let pad = if indent < 0 then 0 else (2 * level * indent) + 2 in
  nodes_size ~indent (level + 1)
    (attrs_size (acc + (2 * tag) + 5 + pad) e.Types.attrs)
    e.Types.children

and nodes_size ~indent level acc = function
  | [] -> acc
  | node :: rest ->
      let acc =
        match node with
        | Types.Element child -> element_size ~indent level acc child
        | Types.Text s -> acc + String.length s
        | Types.Cdata s -> acc + String.length s + 12
        | Types.Comment s -> acc + String.length s + 7 + (level * max indent 0) + 1
        | Types.Pi (target, content) ->
            acc + String.length target + String.length content + 5
            + (level * max indent 0) + 1
      in
      nodes_size ~indent level acc rest

(* A newline, unless nothing was printed since [start], then [level *
   indent] spaces. *)
let pad buf ~indent ~start level =
  if Buffer.length buf > start then Buffer.add_char buf '\n';
  for _ = 1 to level * indent do
    Buffer.add_char buf ' '
  done

let rec add_attrs buf = function
  | [] -> ()
  | (name, value) :: rest ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf name;
      Buffer.add_string buf "=\"";
      add_escaped buf ~quotes:true value 0 0;
      Buffer.add_char buf '"';
      add_attrs buf rest

let rec add_element buf ~indent ~start level ~pretty e =
  if pretty then pad buf ~indent ~start level;
  Buffer.add_char buf '<';
  Buffer.add_string buf e.Types.tag;
  add_attrs buf e.Types.attrs;
  match e.Types.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
      Buffer.add_char buf '>';
      let child_pretty = pretty && not (has_text_child e) in
      add_nodes buf ~indent ~start (level + 1) ~pretty:child_pretty children;
      if child_pretty then pad buf ~indent ~start level;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.Types.tag;
      Buffer.add_char buf '>'

and add_nodes buf ~indent ~start level ~pretty = function
  | [] -> ()
  | node :: rest ->
      (match node with
      | Types.Element child -> add_element buf ~indent ~start level ~pretty child
      | Types.Text s -> add_escaped buf ~quotes:false s 0 0
      | Types.Cdata s ->
          Buffer.add_string buf "<![CDATA[";
          Buffer.add_string buf s;
          Buffer.add_string buf "]]>"
      | Types.Comment s ->
          if pretty then pad buf ~indent ~start level;
          Buffer.add_string buf "<!--";
          Buffer.add_string buf s;
          Buffer.add_string buf "-->"
      | Types.Pi (target, content) ->
          if pretty then pad buf ~indent ~start level;
          Buffer.add_string buf "<?";
          Buffer.add_string buf target;
          Buffer.add_char buf ' ';
          Buffer.add_string buf content;
          Buffer.add_string buf "?>");
      add_nodes buf ~indent ~start level ~pretty rest

(* [root] after what [buf] holds, pretty-printed when [indent] is
   [Some _]: its first padding adds no newline. *)
let add_root buf ?indent root =
  add_element buf
    ~indent:(Option.value ~default:0 indent)
    ~start:(Buffer.length buf) 0 ~pretty:(indent <> None) root

(* An eighth more than the unescaped size: room for escapes, so that
   the buffer rarely grows. *)
let root_size ?indent root =
  let size = element_size ~indent:(Option.value ~default:(-1) indent) 0 0 root in
  size + (size / 8)

let element_to_string ?indent root =
  let buf = Buffer.create (root_size ?indent root) in
  add_root buf ?indent root;
  Buffer.contents buf

let doc_to_string ?indent d =
  let buf = Buffer.create (root_size ?indent d.Types.root + 128) in
  Buffer.add_string buf "<?xml version=\"1.0\"?>";
  if indent <> None then Buffer.add_char buf '\n';
  (match d.Types.doctype with
  | None -> ()
  | Some dt ->
      Buffer.add_string buf "<!DOCTYPE ";
      Buffer.add_string buf dt.Types.root_name;
      (match dt.Types.public_id, dt.Types.system_id with
      | Some pub, Some sys ->
          Buffer.add_string buf (Printf.sprintf " PUBLIC \"%s\" \"%s\"" pub sys)
      | Some pub, None -> Buffer.add_string buf (Printf.sprintf " PUBLIC \"%s\"" pub)
      | None, Some sys -> Buffer.add_string buf (Printf.sprintf " SYSTEM \"%s\"" sys)
      | None, None -> ());
      (match dt.Types.internal_subset with
      | Some subset ->
          Buffer.add_string buf " [";
          Buffer.add_string buf subset;
          Buffer.add_char buf ']'
      | None -> ());
      Buffer.add_char buf '>';
      if indent <> None then Buffer.add_char buf '\n');
  add_root buf ?indent d.Types.root;
  Buffer.contents buf

let pp_element ppf e = Format.pp_print_string ppf (element_to_string ~indent:2 e)
