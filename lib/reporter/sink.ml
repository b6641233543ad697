type delivery = {
  seq : int;
  recipient : string;
  subscription : string;
  report : Xy_xml.Types.element;
  printed : string Lazy.t;
  at : float;
}

type t = { deliver : delivery -> unit }

let memory () =
  let deliveries = ref [] in
  ({ deliver = (fun d -> deliveries := d :: !deliveries) }, deliveries)

let null () = { deliver = (fun _ -> ()) }

let counting () =
  let count = ref 0 in
  ({ deliver = (fun _ -> incr count) }, count)

let simulated_smtp ~per_mail_seconds ~clock =
  let count = ref 0 in
  ( {
      deliver =
        (fun _ ->
          incr count;
          Xy_util.Clock.advance clock per_mail_seconds);
    },
    count )

let tee a b = { deliver = (fun d -> a.deliver d; b.deliver d) }

(* The index format is fixed here (not delegated to the printer) so
   each delivery can extend it in place: overwrite the constant
   "</reports>\n" trailer with the new entry plus the trailer again —
   O(1) index work per report instead of rewriting all N entries. *)
let index_trailer = "</reports>\n"

let index_entry seq = Printf.sprintf "  <report href=\"%d.xml\"/>\n" seq

let directory ~root ?written () =
  let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755 in
  let count n = match written with Some w -> w := !w + n | None -> () in
  (* Atomic publication: the report lands under a temp name and is
     renamed into place, so a crash mid-delivery never leaves a
     half-written report; the index is only extended *after* the
     rename, so it never references a missing or partial file. *)
  let write_atomic path content =
    let temp = path ^ ".tmp" in
    let oc = open_out_bin temp in
    output_string oc content;
    close_out oc;
    Sys.rename temp path;
    count (String.length content)
  in
  let append_index path ~seq =
    let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
    let length = out_channel_length oc in
    seek_out oc (max 0 (length - String.length index_trailer));
    let addition = index_entry seq ^ index_trailer in
    output_string oc addition;
    close_out oc;
    count (String.length addition)
  in
  let index_has path ~seq =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        let len = in_channel_length ic in
        let body = really_input_string ic len in
        close_in ic;
        let needle = Printf.sprintf "href=\"%d.xml\"" seq in
        let nlen = String.length needle in
        let rec at i =
          i + nlen <= len && (String.sub body i nlen = needle || at (i + 1))
        in
        at 0
  in
  let deliver d =
    ensure_dir root;
    let dir = Filename.concat root d.subscription in
    ensure_dir dir;
    let path = Filename.concat dir (Printf.sprintf "%d.xml" d.seq) in
    (* File names carry the reporter's global delivery sequence
       number, so an at-least-once re-delivery after a crash
       overwrites the same file instead of duplicating the report. *)
    let existed = Sys.file_exists path in
    write_atomic path (Xy_xml.Printer.element_to_string ~indent:2 d.report);
    let index_path = Filename.concat dir "index.xml" in
    if not (Sys.file_exists index_path) then
      write_atomic index_path
        (Printf.sprintf "<reports subscription=\"%s\">\n%s"
           (Xy_xml.Printer.escape_attr d.subscription)
           index_trailer);
    (* Only the re-delivery path pays the containment scan; the
       normal path keeps its O(1) in-place append. *)
    if not (existed && index_has index_path ~seq:d.seq) then
      append_index index_path ~seq:d.seq
  in
  { deliver }

(* {2 The delivery ledger} — one {!Xy_durable.Record_log} record per
   delivery, every field inside the record's checksum.  The ledger is
   observational: it is how a killed-and-restarted run and an
   uninterrupted one are diffed report-for-report.  Duplicate seq
   numbers in the ledger are exactly the at-least-once re-deliveries;
   consumers dedup by seq. *)

module Codec = Xy_util.Codec
module Record_log = Xy_durable.Record_log

type ledger_entry = {
  l_seq : int;
  l_at : float;
  l_recipient : string;
  l_subscription : string;
  l_report : string;
}

(* The file opens at the first delivery, so [path]'s directory need
   not exist before then, and stays open: a sink has no close. *)
let ledger ~path () =
  let log = lazy (Record_log.open_log path) in
  let deliver d =
    let report = Xy_xml.Printer.element_to_string ~indent:2 d.report in
    let buf = Buffer.create (String.length report + 64) in
    Codec.int buf d.seq;
    Codec.float buf d.at;
    Codec.string buf d.recipient;
    Codec.string buf d.subscription;
    Codec.string buf report;
    Record_log.append (Lazy.force log) (Buffer.contents buf)
  in
  { deliver }

let decode_entry payload =
  let r = Codec.reader payload in
  let l_seq = Codec.read_int r in
  let l_at = Codec.read_float r in
  let l_recipient = Codec.read_string r in
  let l_subscription = Codec.read_string r in
  let l_report = Codec.read_string r in
  Codec.expect_end r;
  { l_seq; l_at; l_recipient; l_subscription; l_report }

let read_ledger path = Record_log.read path ~decode:decode_entry

