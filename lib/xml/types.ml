type name = string
type attribute = name * string

type node =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string

and element = { tag : name; attrs : attribute list; children : node list }

type doctype = {
  root_name : name;
  system_id : string option;
  public_id : string option;
  internal_subset : string option;
}

type doc = { doctype : doctype option; root : element }

let element ?(attrs = []) tag children = { tag; attrs; children }
let el ?attrs tag children = Element (element ?attrs tag children)
let text s = Text s
let doc ?doctype root = { doctype; root }
let attr e name = List.assoc_opt name e.attrs

let children_elements e =
  List.filter_map
    (function Element child -> Some child | Text _ | Cdata _ | Comment _ | Pi _ -> None)
    e.children

(* A lone text child is the text itself: no buffer. *)
let text_content e =
  match e.children with
  | [] -> ""
  | [ (Text s | Cdata s) ] -> s
  | children ->
      let buf = Buffer.create 64 in
      let rec go node =
        match node with
        | Text s | Cdata s ->
            if Buffer.length buf > 0 then Buffer.add_char buf ' ';
            Buffer.add_string buf s
        | Element child -> List.iter go child.children
        | Comment _ | Pi _ -> ()
      in
      List.iter go children;
      Buffer.contents buf

let direct_text e =
  let buf = Buffer.create 32 in
  List.iter
    (function
      | Text s | Cdata s ->
          if Buffer.length buf > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf s
      | Element _ | Comment _ | Pi _ -> ())
    e.children;
  Buffer.contents buf

let rec equal_element a b =
  a.tag = b.tag
  && List.sort compare a.attrs = List.sort compare b.attrs
  && equal_children a.children b.children

and equal_children la lb =
  let significant = function
    | Element _ | Text _ | Cdata _ -> true
    | Comment _ | Pi _ -> false
  in
  let la = List.filter significant la and lb = List.filter significant lb in
  List.length la = List.length lb
  && List.for_all2
       (fun a b ->
         match a, b with
         | Element ea, Element eb -> equal_element ea eb
         | (Text sa | Cdata sa), (Text sb | Cdata sb) -> sa = sb
         | Element _, (Text _ | Cdata _) | (Text _ | Cdata _), Element _ ->
             false
         | (Comment _ | Pi _), _ | _, (Comment _ | Pi _) -> false)
       la lb

let rec size e =
  1
  + List.fold_left
      (fun acc node ->
        match node with
        | Element child -> acc + size child
        | Text _ | Cdata _ | Comment _ | Pi _ -> acc + 1)
      0 e.children

let rec depth e =
  1
  + List.fold_left
      (fun acc node ->
        match node with
        | Element child -> max acc (depth child)
        | Text _ | Cdata _ | Comment _ | Pi _ -> acc)
      0 e.children

let rec iter_elements f e =
  f e;
  List.iter
    (function
      | Element child -> iter_elements f child
      | Text _ | Cdata _ | Comment _ | Pi _ -> ())
    e.children

let tags e =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  iter_elements
    (fun child ->
      if not (Hashtbl.mem seen child.tag) then begin
        Hashtbl.replace seen child.tag ();
        order := child.tag :: !order
      end)
    e;
  List.rev !order
