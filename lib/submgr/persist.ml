module Codec = Xy_util.Codec
module Record_log = Xy_durable.Record_log

type record =
  | Insert of { name : string; owner : string; text : string }
  | Delete of string

type tail = Record_log.tail = Clean | Torn | Corrupt

let encode record =
  let buf = Buffer.create 128 in
  (match record with
  | Insert { name; owner; text } ->
      Codec.string buf "I";
      Codec.string buf name;
      Codec.string buf owner;
      Codec.string buf text
  | Delete name ->
      Codec.string buf "D";
      Codec.string buf name);
  Buffer.contents buf

let decode payload =
  let r = Codec.reader payload in
  let record =
    match Codec.read_string r with
    | "I" ->
        let name = Codec.read_string r in
        let owner = Codec.read_string r in
        let text = Codec.read_string r in
        Insert { name; owner; text }
    | "D" -> Delete (Codec.read_string r)
    | kind -> raise (Codec.Malformed ("unknown subscription record " ^ kind))
  in
  Codec.expect_end r;
  record

let append_insert log ~name ~owner ~text =
  Record_log.append log (encode (Insert { name; owner; text }))

let append_delete log ~name = Record_log.append log (encode (Delete name))

let scan path = Record_log.read path ~decode
let read_all path = fst (scan path)

(* Drop inserts cancelled by a later delete or superseded by a later
   re-insert (and the deletes themselves): only each name's last
   record matters, and it survives iff it is an insert.  One indexed
   pass instead of a rescan-the-tail per record — recovery is hot at
   10^5 subscriptions.  [record_of] lets a rewrite keep each record's
   payload beside it. *)
let survivors_by record_of items =
  let last = Hashtbl.create 1024 in
  List.iteri
    (fun i item ->
      match record_of item with
      | Insert { name; _ } -> Hashtbl.replace last name i
      | Delete name -> Hashtbl.remove last name)
    items;
  List.filteri
    (fun i item ->
      match record_of item with
      | Insert { name; _ } -> Hashtbl.find_opt last name = Some i
      | Delete _ -> false)
    items

let survivors records = survivors_by Fun.id records

let replay_counting path =
  let records = read_all path in
  let live = survivors records in
  (live, List.length records - List.length live)

let replay path = fst (replay_counting path)

let rewrite log =
  match
    Record_log.read (Record_log.path log) ~decode:(fun payload ->
        (decode payload, payload))
  with
  | _, (Torn | Corrupt) -> None
  | items, Clean ->
      let kept = survivors_by fst items in
      if Record_log.rewrite log (List.map snd kept) then
        Some (List.length items - List.length kept)
      else None
