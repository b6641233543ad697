(** The one record format for every durable file and every wire frame.

    A record is

    {v W <payload_len> <checksum>\n<payload>\n v}

    — an ASCII header with a strict decimal length and the payload's
    16-hex-digit {!checksum}, then the raw payload bytes and a
    trailing newline.  Callers store every field inside the payload
    as {!Xy_util.Codec} fields, so the checksum covers everything a
    record carries.

    The tag names the checksum.  Older builds wrote [X] records,
    checksummed with byte-serial FNV-1a: this build frames them but
    refuses them as {!Older_format}, so a directory or a peer from
    such a build is told apart from damage, never read.

    The subscription log, the delivery ledger, the WALs,
    snapshots, the [MANIFEST] and the serving surface's wire frames
    are all sequences of these records.  One incremental {!decoder}
    reads them from sockets and files alike; {!read} scans a file to
    a {!tail} verdict; one append handle ({!t}) carries the write
    fault points, and {!rewrite} replaces its file whole. *)

(** {2 Records} *)

(** [checksum payload] is the 16-hex-digit checksum carried in the
    header: 64 bits folded over the payload's little-endian 8-byte
    words, then its trailing [n mod 8] bytes as one zero-padded word,
    then its length.  Each fold step is a bijection of the state, so
    two payloads of one length that differ within one word always
    differ here. *)
val checksum : string -> string

(** [encode payload] is the complete record, built in one block: the
    payload is copied once. *)
val encode : string -> string

(** [add_record buf parts] appends the record whose payload is the
    concatenation of [parts], without building it: the checksum is
    folded over the parts, then the header and each part are
    appended.  The bytes equal [encode (String.concat "" parts)]. *)
val add_record : Buffer.t -> string list -> unit

(** [output_record oc parts] writes the same bytes as [add_record] to
    [oc]. *)
val output_record : out_channel -> string list -> unit

(** Largest payload a socket decoder accepts by default: 16 MiB. *)
val default_max_frame : int

(** {2 Incremental decoding} *)

type error =
  | Bad_header of string  (** header line is not [W <len> <checksum>] *)
  | Oversize of int  (** declared length exceeds the maximum *)
  | Bad_crc  (** checksum mismatch or missing trailer *)
  | Older_format
      (** a whole, well-framed record in the format older builds wrote
          ([X] header, FNV-1a checksum), whose checksum this build
          does not compute *)

val error_to_string : error -> string

(** Feed raw bytes in, pop whole payloads out.  After the first error
    the decoder is poisoned and keeps returning that error.  Once a
    header is buffered, the decoder reserves the record's declared
    length once, so a large record is read straight into place
    rather than re-concatenated chunk by chunk. *)
type decoder

(** [decoder ?max_frame ()] accepts payloads of at most [max_frame]
    bytes (default {!default_max_frame}). *)
val decoder : ?max_frame:int -> unit -> decoder

(** [feed d bytes] buffers [bytes]. *)
val feed : decoder -> string -> unit

(** [fill d read] calls [read buf pos len] once to read up to [len]
    bytes straight into the decoder's buffer at [pos] (a
    [Unix.read]- or [input]-shaped function) and returns its count;
    [0] means end of input.  Exceptions from [read] propagate and
    leave the decoder unchanged. *)
val fill : decoder -> (bytes -> int -> int -> int) -> int

(** [next d] is [Ok (Some payload)] when a whole record is buffered,
    [Ok None] when more bytes are needed, [Error _] on a framing
    violation. *)
val next : decoder -> (string option, error) result

(** Bytes buffered but not yet consumed. *)
val buffered : decoder -> int

(** {2 Reading files} *)

(** How a file ended. *)
type tail =
  | Clean  (** every byte accounted for *)
  | Torn
      (** the final record is shorter than its header promises — the
          expected shape of a crash mid-append; the records before it
          are intact *)
  | Corrupt
      (** a full-length record failed its checksum, its framing or its
          [decode] — bytes were damaged in place, or the record is
          in the {!Older_format}; records after it are lost *)

(** [read path ~decode] decodes every intact record of [path] in
    order, stopping at the first damage, plus the tail verdict.  A
    record whose [decode] raises {!Xy_util.Codec.Malformed} counts as
    [Corrupt]; one whose declared length runs past the end of the
    file counts as [Torn].  A missing file is [([], Clean)]. *)
val read : string -> decode:(string -> 'a) -> 'a list * tail

(** [older_format path] is true when the first record of [path] is
    whole and in the {!Older_format}: the file was written by an
    older build, not damaged. *)
val older_format : string -> bool

(** {2 Writing files} *)

(** An append handle. *)
type t

(** [open_log ?faults path] opens (or creates) [path] and keeps an
    append channel open: one write and flush per record.  A [Torn]
    tail is cut back to the end of the last whole record first, so
    what is appended reads back after the intact prefix; a [Corrupt]
    file is left as it is.

    [faults] (default {!Xy_fault.Fault.none}) arms two failure points:
    [torn_write] cuts an append short and kills the handle — the
    crash shape, every later append is silently dropped and {!read}
    diagnoses the tail as [Torn]; [short_write] cuts one append short
    but lets the handle live on, leaving mid-log damage {!read}
    diagnoses as [Corrupt]. *)
val open_log : ?faults:Xy_fault.Fault.t -> string -> t

(** [append t payload] writes one record (no-op once dead). *)
val append : t -> string -> unit

val close : t -> unit

(** [is_dead t] — a [torn_write] fault has "crashed" this handle. *)
val is_dead : t -> bool

(** [path t] is the file [t] appends to. *)
val path : t -> string

(** [sync oc] flushes [oc] and fsyncs its file. *)
val sync : out_channel -> unit

(** [sync_dir dir] fsyncs the directory entry list of [dir]; errors
    are ignored. *)
val sync_dir : string -> unit

(** [write_file path records] atomically replaces [path] with
    [records], each given as the parts its payload concatenates (the
    checksum is folded over the parts, so a large payload is never
    copied into a wrapping one): temp file, fsync, rename, directory
    fsync. *)
val write_file : string -> string list list -> unit

(** [rewrite t payloads] replaces [t]'s file with one record per
    payload, in order, and reopens [t] on the new file: the records
    go to the temp [<path>.compact] (truncated first, so a temp an
    earlier rewrite left behind is never appended to), which is
    fsynced and renamed into place before the directory is fsynced.
    [false] when [t] is dead or writing failed (a full disk, a
    directory squatting on the temp path): the temp is removed, the
    file is left exactly as it was and [t] still appends to it. *)
val rewrite : t -> string list -> bool
