module Fault = Xy_fault.Fault
module Hashing = Xy_util.Hashing

(* {2 Records} *)

let checksum = Hashing.signature
let default_max_frame = 16 * 1024 * 1024

(* "X " + decimal length + " " + 16 hex digits.  A header that grows
   past this without a newline cannot become valid. *)
let header_max = 2 + 19 + 1 + 16

let encode payload =
  Printf.sprintf "X %d %s\n%s\n" (String.length payload) (checksum payload)
    payload

let output_parts oc parts =
  let len = List.fold_left (fun n part -> n + String.length part) 0 parts in
  Printf.fprintf oc "X %d %s\n" len (Hashing.signature_parts parts);
  List.iter (output_string oc) parts;
  output_char oc '\n'

(* {2 Incremental decoding}

   Buffered bytes live in [buf] between [start] and [stop].  Once a
   header is parsed, [want] holds the whole record's size so [fill]
   can reserve it in one go. *)

type error = Bad_header of string | Oversize of int | Bad_crc

let error_to_string = function
  | Bad_header h -> Printf.sprintf "bad frame header %S" h
  | Oversize n -> Printf.sprintf "frame length %d exceeds maximum" n
  | Bad_crc -> "frame checksum mismatch"

type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable want : int;
  mutable last : int;
      (** where the record {!next} returned last began — compaction
          copies its raw bytes from there *)
  mutable poisoned : error option;
}

let make_decoder ~max_frame ~size =
  {
    max_frame;
    buf = Bytes.create size;
    start = 0;
    stop = 0;
    want = 0;
    last = 0;
    poisoned = None;
  }

let decoder ?(max_frame = default_max_frame) () =
  make_decoder ~max_frame ~size:4096

let buffered d = d.stop - d.start

(* Room for [room] more bytes past [stop]: slide the unconsumed bytes
   to the front, growing the buffer only when they and [room] do not
   fit together. *)
let reserve d room =
  if Bytes.length d.buf - d.stop < room then begin
    let live = buffered d in
    let buf =
      if live + room <= Bytes.length d.buf then d.buf
      else Bytes.create (max (2 * Bytes.length d.buf) (live + room))
    in
    Bytes.blit d.buf d.start buf 0 live;
    d.buf <- buf;
    d.start <- 0;
    d.stop <- live
  end

let feed d chunk =
  let n = String.length chunk in
  reserve d n;
  Bytes.blit_string chunk 0 d.buf d.stop n;
  d.stop <- d.stop + n

let fill d read =
  reserve d (max 4096 (d.want - buffered d));
  let n = read d.buf d.stop (Bytes.length d.buf - d.stop) in
  d.stop <- d.stop + n;
  n

let fail d e =
  d.poisoned <- Some e;
  Error e

let rec newline buf i limit =
  if i >= limit then None
  else if Bytes.unsafe_get buf i = '\n' then Some i
  else newline buf (i + 1) limit

let next d =
  match d.poisoned with
  | Some e -> Error e
  | None -> (
      match newline d.buf d.start (min d.stop (d.start + header_max + 1)) with
      | None ->
          if buffered d > header_max then
            fail d (Bad_header (Bytes.sub_string d.buf d.start header_max))
          else Ok None
      | Some nl -> (
          let header = Bytes.sub_string d.buf d.start (nl - d.start) in
          match String.split_on_char ' ' header with
          | [ "X"; len_s; crc ] when String.length crc = 16 -> (
              match Xy_util.Parse.decimal_int len_s with
              | None -> fail d (Bad_header header)
              | Some len when len > d.max_frame -> fail d (Oversize len)
              | Some len ->
                  let total = nl + 1 - d.start + len + 1 in
                  if buffered d < total then begin
                    d.want <- total;
                    Ok None
                  end
                  else if Bytes.get d.buf (nl + 1 + len) <> '\n' then
                    fail d Bad_crc
                  else
                    let payload = Bytes.sub_string d.buf (nl + 1) len in
                    if not (String.equal (checksum payload) crc) then
                      fail d Bad_crc
                    else begin
                      d.last <- d.start;
                      d.start <- d.start + total;
                      d.want <- 0;
                      Ok (Some payload)
                    end)
          | _ -> fail d (Bad_header header)))

(* {2 Reading files} *)

type tail = Clean | Torn | Corrupt

(* A file decoder never accepts a record longer than the file: a
   damaged length cannot make it reserve more than that, and a record
   whose length runs past the end never all landed — a torn tail. *)
let file_decoder ic =
  make_decoder ~max_frame:(in_channel_length ic) ~size:65536

type item = Record of string | Stop of tail

let rec pull d ic =
  match next d with
  | Ok (Some payload) -> Record payload
  | Ok None ->
      if fill d (input ic) > 0 then pull d ic
      else Stop (if buffered d = 0 then Clean else Torn)
  | Error (Oversize _) -> Stop Torn
  | Error (Bad_header _ | Bad_crc) -> Stop Corrupt

let read path ~decode =
  match open_in_bin path with
  | exception Sys_error _ -> ([], Clean)
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let d = file_decoder ic in
      let rec go acc =
        match pull d ic with
        | Stop tail -> (List.rev acc, tail)
        | Record payload -> (
            match decode payload with
            | v -> go (v :: acc)
            | exception Xy_util.Codec.Malformed _ -> (List.rev acc, Corrupt))
      in
      go []

(* {2 Writing files} *)

type t = {
  path : string;
  mutable channel : out_channel;
  faults : Fault.t;
  mutable dead : bool;  (** a torn write "crashed" this handle *)
}

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let open_log ?(faults = Fault.none) path =
  { path; channel = open_append path; faults; dead = false }

let is_dead t = t.dead

let append t payload =
  if not t.dead then begin
    let record = encode payload in
    let record =
      (* Two distinct failure shapes: [torn_write] is a crash — a
         strict prefix lands and nothing is ever appended again (the
         expected Torn tail); [short_write] damages one record but the
         log lives on, leaving mid-log corruption. *)
      if Fault.fire t.faults "torn_write" then begin
        t.dead <- true;
        String.sub record 0
          (Fault.draw_int t.faults "torn_write" ~bound:(String.length record))
      end
      else if Fault.fire t.faults "short_write" then
        String.sub record 0
          (Fault.draw_int t.faults "short_write" ~bound:(String.length record))
      else record
    in
    output_string t.channel record;
    flush t.channel
  end

let close t = close_out t.channel

let size t = if t.dead then 0 else out_channel_length t.channel

let remove_quietly path =
  try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ()

let sync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* An atomic temp+rename survives a process kill but not a power loss
   unless the file's bytes were fsynced before the rename and the
   directory entry after it. *)
let sync oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let write_file path records =
  let temp = path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 temp
  in
  (try
     List.iter (output_parts oc) records;
     sync oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     remove_quietly temp;
     raise e);
  Sys.rename temp path;
  sync_dir (Filename.dirname path)

(* {2 Compaction} *)

module Compaction = struct
  type phase = Indexing | Writing of out_channel

  type task = {
    log : t;
    key : string -> string * bool;
    temp : string;
    ic : in_channel;
    mutable dec : decoder;
    last : (string, int) Hashtbl.t;  (** key -> ordinal of its last record *)
    mutable ordinal : int;
    mutable total : int;  (** records indexed *)
    mutable kept : int;
    mutable limit : int;  (** byte offset where indexing stopped *)
    mutable phase : phase;
  }

  type progress = Running | Finished of int | Abandoned

  let start ~key log =
    if log.dead then None
    else
      match open_in_bin log.path with
      | exception Sys_error _ -> None
      | ic ->
          let temp = log.path ^ ".compact" in
          (* an earlier task that crashed or was abandoned may have
             left its temp behind *)
          remove_quietly temp;
          Some
            {
              log;
              key;
              temp;
              ic;
              dec = file_decoder ic;
              last = Hashtbl.create 1024;
              ordinal = 0;
              total = 0;
              kept = 0;
              limit = 0;
              phase = Indexing;
            }

  let abandon task =
    close_in_noerr task.ic;
    (match task.phase with Writing oc -> close_out_noerr oc | Indexing -> ());
    remove_quietly task.temp;
    Abandoned

  let finish task oc =
    (* Records appended since indexing stopped are newer than every
       survivor; copy them verbatim. *)
    flush task.log.channel;
    seek_in task.ic task.limit;
    let buf = Bytes.create 65536 in
    let rec copy () =
      let n = input task.ic buf 0 (Bytes.length buf) in
      if n > 0 then begin
        output oc buf 0 n;
        copy ()
      end
    in
    copy ();
    close_in task.ic;
    sync oc;
    close_out oc;
    Sys.rename task.temp task.log.path;
    sync_dir (Filename.dirname task.log.path);
    (* the live channel still points at the replaced file *)
    let old = task.log.channel in
    task.log.channel <- open_append task.log.path;
    close_out_noerr old;
    Finished (task.total - task.kept)

  let rec index task n =
    if n = 0 then Running
    else
      match pull task.dec task.ic with
      | Stop (Torn | Corrupt) -> abandon task
      | Stop Clean ->
          task.limit <- pos_in task.ic;
          seek_in task.ic 0;
          task.dec <- make_decoder ~max_frame:task.limit ~size:65536;
          task.phase <-
            Writing
              (open_out_gen
                 [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
                 0o644 task.temp);
          task.ordinal <- 0;
          Running
      | Record payload ->
          let key, survives = task.key payload in
          if survives then Hashtbl.replace task.last key task.ordinal
          else Hashtbl.remove task.last key;
          task.ordinal <- task.ordinal + 1;
          task.total <- task.total + 1;
          index task (n - 1)

  let rec write task oc n =
    if task.ordinal >= task.total then finish task oc
    else if n = 0 then Running
    else
      match pull task.dec task.ic with
      | Stop _ -> abandon task
      | Record payload ->
          let key, _ = task.key payload in
          if Hashtbl.find_opt task.last key = Some task.ordinal then begin
            let d = task.dec in
            output oc d.buf d.last (d.start - d.last);
            task.kept <- task.kept + 1
          end;
          task.ordinal <- task.ordinal + 1;
          write task oc (n - 1)

  let step task ~budget =
    if task.log.dead then abandon task
    else
      match
        match task.phase with
        | Indexing -> index task budget
        | Writing oc -> write task oc budget
      with
      | progress -> progress
      | exception
          (Sys_error _ | Unix.Unix_error _ | Xy_util.Codec.Malformed _) ->
          abandon task
end
