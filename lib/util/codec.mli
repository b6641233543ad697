(** Minimal field codec for durable snapshots, WAL operations and
    wire frames.

    Every stateful stage serialises its state with these helpers so
    the durability layer ({!Xy_durable.Durable}) stays generic: a
    stage's snapshot or operation is just a string of framed fields.

    Wire format, one field per call:
    - ints as ["%d\n"],
    - floats as ["%h\n"] (hexadecimal notation — exact round trip,
      including infinities and nan),
    - bools as ["0\n"]/["1\n"],
    - strings length-prefixed as ["%d\n%s"] (raw bytes, no
      terminator — payloads may contain anything).

    The writers produce exactly the bytes of [string_of_int] and
    [Printf.sprintf "%h"], built by hand without either; each call
    works in a block of its own, so any thread may call them. *)

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

(** [read_int r] reads an optional ['-'] and then ASCII decimal
    digits only, as {!Parse.digits} does: the [0x]/[0o]/[0b] prefixes,
    [_] separators and ['+'] that [int_of_string] accepts, an empty
    field, a lone ['-'] and a value outside [[min_int, max_int]] are
    {!Malformed}. *)
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
