(** Strict parsing for on-disk and on-wire integers.

    The durable formats (WAL, snapshot, manifest, subscription log)
    and the wire frames only ever write ASCII decimals; readers must
    accept nothing more, or damaged bytes can masquerade as valid
    framing. *)

(** [digits s ~pos ~stop ~negative] is the base-10 value of
    [s.[pos] .. s.[stop - 1]], negated when [negative].  The range
    must hold at least one byte and only ASCII digits, and the value
    must fit an [int] ([min_int] does when [negative]); otherwise
    [None].  Leading zeros are accepted. *)
val digits : string -> pos:int -> stop:int -> negative:bool -> int option

(** [decimal_int s] parses the whole of [s] as a non-negative base-10
    integer made exclusively of ASCII digits.  Rejects everything
    [int_of_string_opt] is lenient about — [0x]/[0o]/[0b] prefixes,
    [_] separators, leading signs — and rejects overflow. *)
val decimal_int : string -> int option
