type t = {
  postings : (int, int list ref) Hashtbl.t;  (** event -> complex ids *)
  arity : (int, int) Hashtbl.t;
  registered : (int, Xy_events.Event_set.t) Hashtbl.t;
}

let name = "counting"

let create () =
  {
    postings = Hashtbl.create 1024;
    arity = Hashtbl.create 1024;
    registered = Hashtbl.create 1024;
  }

let add t ~id events =
  if Array.length events = 0 then invalid_arg "Counting.add: empty complex event";
  if Hashtbl.mem t.registered id then invalid_arg "Counting.add: duplicate id";
  Hashtbl.replace t.registered id events;
  Hashtbl.replace t.arity id (Array.length events);
  Array.iter
    (fun code ->
      match Hashtbl.find_opt t.postings code with
      | Some ids -> ids := id :: !ids
      | None -> Hashtbl.replace t.postings code (ref [ id ]))
    events

let remove t ~id =
  match Hashtbl.find_opt t.registered id with
  | None -> raise Not_found
  | Some events ->
      Hashtbl.remove t.registered id;
      Hashtbl.remove t.arity id;
      Array.iter
        (fun code ->
          match Hashtbl.find_opt t.postings code with
          | None -> assert false
          | Some ids ->
              ids := List.filter (fun i -> i <> id) !ids;
              if !ids = [] then Hashtbl.remove t.postings code)
        events

let events t ~id =
  match Hashtbl.find_opt t.registered id with
  | Some events -> events
  | None -> raise Not_found

let iter t f = Hashtbl.iter (fun id events -> f ~id events) t.registered

(* The counters are the call's own, so matching never writes the
   structure and runs on several domains at once. *)
let match_set t s =
  let counters = Hashtbl.create 256 in
  let acc = ref [] in
  Array.iter
    (fun code ->
      match Hashtbl.find_opt t.postings code with
      | None -> ()
      | Some ids ->
          List.iter
            (fun id ->
              let count = 1 + Option.value ~default:0 (Hashtbl.find_opt counters id) in
              Hashtbl.replace counters id count;
              if count = Hashtbl.find t.arity id then acc := id :: !acc)
            !ids)
    s;
  List.sort_uniq Int.compare !acc

let complex_count t = Hashtbl.length t.registered

let approx_memory_words t =
  let posting_words =
    Hashtbl.fold (fun _ ids acc -> acc + 2 + (3 * List.length !ids)) t.postings 0
  in
  let registered_words =
    Hashtbl.fold (fun _ events acc -> acc + 8 + Array.length events) t.registered 0
  in
  posting_words + registered_words + (2 * Hashtbl.length t.arity)
