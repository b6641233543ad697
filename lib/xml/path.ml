type axis = Child | Descendant
type step = { axis : axis; tag : Types.name option }
type t = step list

let parse s =
  let s = String.trim s in
  if s = "" || s = "self" then []
  else begin
    (* Split on '/'; an empty component marks a '//' (descendant axis
       for the following step).  A leading "//" is a descendant step
       from the context node; a single leading "/" (absolute path) is
       rejected: monitoring always navigates from [self]. *)
    let starts_with prefix = String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    in
    let first_axis, body =
      if starts_with "//" then
        (Descendant, String.sub s 2 (String.length s - 2))
      else if starts_with "/" then
        invalid_arg "Path.parse: absolute paths not supported"
      else (Child, s)
    in
    let parts = String.split_on_char '/' body in
    let rec build axis = function
      | [] -> []
      | "" :: rest ->
          (match rest with
          | [] -> invalid_arg "Path.parse: trailing '/'"
          | _ ->
              if axis = Descendant then
                invalid_arg "Path.parse: '///' is not a step"
              else build Descendant rest)
      | "self" :: rest ->
          (* 'self' only allowed as head *)
          if axis = Child then build Child rest
          else invalid_arg "Path.parse: 'self' after '//'"
      | name :: rest ->
          let tag = if name = "*" then None else Some name in
          String.iter
            (fun c ->
              if c = ' ' || c = '\t' then
                invalid_arg "Path.parse: whitespace in step")
            name;
          { axis; tag } :: build Child rest
    in
    build first_axis parts
  end

let step_matches step (e : Types.element) =
  match step.tag with None -> true | Some tag -> tag = e.Types.tag

let rec descendants (e : Types.element) =
  let children = Types.children_elements e in
  List.concat_map (fun child -> child :: descendants child) children

(* The child elements [step] names, in one pass over the children. *)
let rec matching_children step = function
  | [] -> []
  | Types.Element e :: rest when step_matches step e ->
      e :: matching_children step rest
  | _ :: rest -> matching_children step rest

let apply_step step context =
  match step.axis with
  | Child -> matching_children step context.Types.children
  | Descendant -> List.filter (step_matches step) (descendants context)

(* A list without repeats, the usual case, is returned as it is. *)
let dedup_physical nodes =
  let rec repeats = function
    | [] -> false
    | node :: rest -> List.memq node rest || repeats rest
  in
  let rec go seen = function
    | [] -> []
    | node :: rest ->
        if List.memq node seen then go seen rest
        else node :: go (node :: seen) rest
  in
  if repeats nodes then go [] nodes else nodes

let select path element =
  let rec go contexts = function
    | [] -> contexts
    | step :: rest ->
        let next =
          match contexts with
          | [ context ] -> apply_step step context
          | _ -> List.concat_map (apply_step step) contexts
        in
        go (dedup_physical next) rest
  in
  go [ element ] path

let matches path element ~node = List.memq node (select path element)

let to_string path =
  match path with
  | [] -> "self"
  | _ ->
      let buf = Buffer.create 32 in
      List.iteri
        (fun i step ->
          (match step.axis, i with
          | Child, 0 -> ()
          | Child, _ -> Buffer.add_char buf '/'
          | Descendant, _ -> Buffer.add_string buf "//");
          Buffer.add_string buf (match step.tag with None -> "*" | Some t -> t))
        path;
      Buffer.contents buf

let pp ppf path = Format.pp_print_string ppf (to_string path)
