type code = int

type entry = { code : code; condition : Atomic.t; mutable refs : int }

type t = {
  by_condition : (Atomic.t, entry) Hashtbl.t;
  by_code : (code, entry) Hashtbl.t;
  mutable next_code : code;
  mutable listeners :
    ([ `Added of code * Atomic.t | `Removed of code * Atomic.t ] -> unit) list;
}

let create () =
  {
    by_condition = Hashtbl.create 1024;
    by_code = Hashtbl.create 1024;
    next_code = 0;
    listeners = [];
  }

let notify t event = List.iter (fun listener -> listener event) t.listeners

let register t condition =
  match Hashtbl.find_opt t.by_condition condition with
  | Some entry ->
      entry.refs <- entry.refs + 1;
      entry.code
  | None ->
      let code = t.next_code in
      t.next_code <- code + 1;
      let entry = { code; condition; refs = 1 } in
      Hashtbl.replace t.by_condition condition entry;
      Hashtbl.replace t.by_code code entry;
      notify t (`Added (code, condition));
      code

let release t code =
  match Hashtbl.find_opt t.by_code code with
  | None -> raise Not_found
  | Some entry ->
      entry.refs <- entry.refs - 1;
      if entry.refs <= 0 then begin
        Hashtbl.remove t.by_condition entry.condition;
        Hashtbl.remove t.by_code code;
        notify t (`Removed (code, entry.condition));
        true
      end
      else false

let find t condition =
  Option.map (fun entry -> entry.code) (Hashtbl.find_opt t.by_condition condition)

let condition t code =
  Option.map (fun entry -> entry.condition) (Hashtbl.find_opt t.by_code code)

let refcount t condition =
  match Hashtbl.find_opt t.by_condition condition with
  | None -> 0
  | Some entry -> entry.refs

let cardinal t = Hashtbl.length t.by_condition
let iter f t = Hashtbl.iter (fun code entry -> f code entry.condition) t.by_code
let on_change t listener = t.listeners <- listener :: t.listeners
