(** Minimal field codec for durable snapshots and WAL operations.

    Every stateful stage serialises its state with these helpers so
    the durability layer ({!Xy_durable.Durable}) stays generic: a
    stage's snapshot or operation is just a string of framed fields.

    Wire format, one field per call:
    - ints as ["%d\n"],
    - floats as ["%h\n"] (hexadecimal notation — exact round trip,
      including infinities and nan),
    - bools as ["0\n"]/["1\n"],
    - strings length-prefixed as ["%d\n%s"] (raw bytes, no
      terminator — payloads may contain anything). *)

(** {2 Writing} *)

val int : Buffer.t -> int -> unit
val float : Buffer.t -> float -> unit
val bool : Buffer.t -> bool -> unit
val string : Buffer.t -> string -> unit

(** [list buf item xs] writes the length of [xs] then each item. *)
val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {2 Reading} *)

type reader

exception Malformed of string

(** [reader s] starts decoding at the beginning of [s].  All [read_*]
    functions raise {!Malformed} when the input does not parse. *)
val reader : string -> reader

val read_int : reader -> int
val read_float : reader -> float
val read_bool : reader -> bool
val read_string : reader -> string

val read_list : reader -> (reader -> 'a) -> 'a list

(** [read_span r f] runs [f r] and also returns the bytes it consumed,
    so a decoder can keep a value's encoding instead of rebuilding
    it. *)
val read_span : reader -> (reader -> 'a) -> 'a * string

(** [at_end r] is true when every byte has been consumed. *)
val at_end : reader -> bool

(** [expect_end r] raises {!Malformed} on trailing bytes. *)
val expect_end : reader -> unit
