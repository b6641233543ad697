module Fault = Xy_fault.Fault

(* {2 Records} *)

(* The record checksum, 64 bits folded over the payload's
   little-endian 8-byte words: each word is xored into the state,
   which is then multiplied by an odd constant and xor-shifted.  Both
   steps are bijections of the state and the xor is one of the word,
   so two payloads of one length that differ in a single word, in any
   of its bits, always end in different states.  The trailing
   [n mod 8] bytes make a last, zero-padded word, and the length comes
   after it.  The parts are folded as one stream, a word may straddle
   two of them, so a checksum over parts is the checksum of their
   concatenation without building it.  Int64 locals stay unboxed in
   the loops; a part costs two boxes. *)
let seed = 0x243f6a8885a308d3L
let odd = 0x9e3779b97f4a7c15L

let[@inline] mix h w =
  let h = Int64.mul (Int64.logxor h w) odd in
  Int64.logxor h (Int64.shift_right_logical h 32)

let sum parts =
  (* [w]: the [k] bytes of a word the parts so far left unfinished;
     [n]: their total length *)
  let rec go h w k n = function
    | [] -> mix (mix h w) (Int64.of_int n)
    | s :: rest ->
        let len = String.length s in
        let h = ref h and w = ref w and k = ref k and i = ref 0 in
        while !i < len do
          if !k = 0 && !i + 8 <= len then begin
            h := mix !h (String.get_int64_le s !i);
            i := !i + 8
          end
          else begin
            let byte = Int64.of_int (Char.code (String.unsafe_get s !i)) in
            w := Int64.logor !w (Int64.shift_left byte (8 * !k));
            incr i;
            incr k;
            if !k = 8 then begin
              h := mix !h !w;
              w := 0L;
              k := 0
            end
          end
        done;
        go !h !w !k (n + len) rest
  in
  go seed 0L 0 0 parts

let hex_digit = "0123456789abcdef"

let put_hex b pos h =
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) in
    Bytes.unsafe_set b (pos + i) hex_digit.[nibble land 0xf]
  done

let checksum payload =
  let b = Bytes.create 16 in
  put_hex b 0 (sum [ payload ]);
  Bytes.unsafe_to_string b

(* The header line names its checksum by its tag: [W] for the word
   checksum above, [X] for the byte-serial FNV-1a that older builds
   wrote, which this build recognizes only to refuse it by name. *)
let tag = "W"
let older_tag = "X"
let default_max_frame = 16 * 1024 * 1024

(* tag + " " + decimal length + " " + 16 hex digits.  A header that
   grows past this without a newline cannot become valid. *)
let header_max = 1 + 1 + 19 + 1 + 16

(* The header of a payload whose length prints as [digits] and whose
   checksum is [h], written at the start of [b]: [String.length
   digits + 20] bytes. *)
let put_header b digits h =
  let n = String.length digits in
  Bytes.unsafe_set b 0 tag.[0];
  Bytes.unsafe_set b 1 ' ';
  Bytes.blit_string digits 0 b 2 n;
  Bytes.unsafe_set b (n + 2) ' ';
  put_hex b (n + 3) h;
  Bytes.unsafe_set b (n + 19) '\n'

let header parts =
  let len = List.fold_left (fun n part -> n + String.length part) 0 parts in
  let digits = string_of_int len in
  let b = Bytes.create (String.length digits + 20) in
  put_header b digits (sum parts);
  Bytes.unsafe_to_string b

let encode payload =
  let len = String.length payload in
  let digits = string_of_int len in
  let at = String.length digits + 20 in
  let b = Bytes.create (at + len + 1) in
  put_header b digits (sum [ payload ]);
  Bytes.blit_string payload 0 b at len;
  Bytes.unsafe_set b (at + len) '\n';
  Bytes.unsafe_to_string b

let add_record buf parts =
  Buffer.add_string buf (header parts);
  List.iter (Buffer.add_string buf) parts;
  Buffer.add_char buf '\n'

let output_record oc parts =
  output_string oc (header parts);
  List.iter (output_string oc) parts;
  output_char oc '\n'

(* {2 Incremental decoding}

   Buffered bytes live in [buf] between [start] and [stop].  Once a
   header is parsed, [want] holds the whole record's size so [fill]
   can reserve it in one go. *)

type error = Bad_header of string | Oversize of int | Bad_crc | Older_format

let error_to_string = function
  | Bad_header h -> Printf.sprintf "bad frame header %S" h
  | Oversize n -> Printf.sprintf "frame length %d exceeds maximum" n
  | Bad_crc -> "frame checksum mismatch"
  | Older_format ->
      "frame in the older record format (X header, FNV-1a checksum), which \
       this build does not read"

type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable want : int;
  mutable poisoned : error option;
}

let make_decoder ~max_frame ~size =
  {
    max_frame;
    buf = Bytes.create size;
    start = 0;
    stop = 0;
    want = 0;
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
          (* An older record is framed like a current one; it is
             refused once whole, where its checksum would be read. *)
          match String.split_on_char ' ' header with
          | [ t; len_s; crc ]
            when (t = tag || t = older_tag) && String.length crc = 16 -> (
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
                  else if t = older_tag then fail d Older_format
                  else
                    let payload = Bytes.sub_string d.buf (nl + 1) len in
                    if not (String.equal (checksum payload) crc) then
                      fail d Bad_crc
                    else begin
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
  | Error (Bad_header _ | Bad_crc | Older_format) -> Stop Corrupt

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

let older_format path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let d = file_decoder ic in
      let rec first () =
        match next d with
        | Error Older_format -> true
        | Ok None when fill d (input ic) > 0 -> first ()
        | Ok _ | Error _ -> false
      in
      first ()

(* {2 Writing files} *)

type t = {
  path : string;
  mutable channel : out_channel;
  faults : Fault.t;
  mutable dead : bool;  (** a torn write "crashed" this handle *)
}

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

(* Where [path]'s intact records end when its tail is torn: the start
   of the incomplete final record, which no reader ever returned.
   [None] for a missing, clean or corrupt file. *)
let torn_tail path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let d = file_decoder ic in
      let rec go () =
        match pull d ic with
        | Record _ -> go ()
        | Stop Torn -> Some (pos_in ic - buffered d)
        | Stop (Clean | Corrupt) -> None
      in
      go ()

(* A record appended behind a torn tail would sit where no reader gets
   past the fragment, so the fragment goes first. *)
let open_log ?(faults = Fault.none) path =
  Option.iter (Unix.truncate path) (torn_tail path);
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
let path t = t.path

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

(* Write [records] to [temp] through an append channel, fsync it and
   rename it over [path]; the channel is returned open at the end of
   the new file.  On failure the temp is removed and [path] is left as
   it was. *)
let replace ~temp path records =
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_creat; Open_trunc; Open_binary ]
      0o644 temp
  in
  (try
     List.iter (output_record oc) records;
     sync oc;
     Sys.rename temp path
   with e ->
     close_out_noerr oc;
     remove_quietly temp;
     raise e);
  sync_dir (Filename.dirname path);
  oc

let write_file path records =
  close_out (replace ~temp:(path ^ ".tmp") path records)

let rewrite t payloads =
  (not t.dead)
  &&
  match
    replace ~temp:(t.path ^ ".compact") t.path
      (List.map (fun payload -> [ payload ]) payloads)
  with
  | exception (Sys_error _ | Unix.Unix_error _) -> false
  | oc ->
      (* the old channel still points at the replaced file *)
      close_out_noerr t.channel;
      t.channel <- oc;
      true
