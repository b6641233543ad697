(** Content signatures.

    For HTML pages Xyleme keeps only "their signature" and detects
    whether a page changed by comparing signatures (paper §1).  We use
    64-bit FNV-1a, which is stable across runs (unlike [Hashtbl.hash]
    seeded variants) so signatures can be persisted. *)

(** [fnv1a64 s] is the 64-bit FNV-1a hash of [s]. *)
val fnv1a64 : string -> int64

(** [fnv1a64_boxed s] is the straightforward [Int64] implementation —
    same result as {!fnv1a64}, kept as the reference the optimised
    native-int version is property-tested against. *)
val fnv1a64_boxed : string -> int64

(** [signature s] renders the hash as 16 lowercase hex digits. *)
val signature : string -> string

(** [signature_parts parts] is [signature (String.concat "" parts)],
    computed without the concatenation. *)
val signature_parts : string list -> string

(** [combine h1 h2] mixes two hashes (for incremental signatures). *)
val combine : int64 -> int64 -> int64
