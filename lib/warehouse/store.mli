(** The document repository.

    Stands in for Natix (the paper's tree repository), as far as
    monitoring needs it: stores the current XID-labelled tree of each
    warehoused XML document and its metadata, the one version the
    {!Loader} diffs the next fetch against.  Earlier versions are not
    kept.  HTML pages are not warehoused; only their signature is
    kept, in the metadata. *)

type entry = {
  meta : Meta.t;
  tree : Xy_xml.Xid.tree option;  (** current version; [None] for HTML *)
}

type t

(** [create ()] is an empty store.

    Every operation is serialized behind an internal mutex, so the
    parallel crawl pipeline's loader domains can warehouse disjoint
    URLs concurrently.  Compound read-modify-write sequences on a
    *single* URL (find, diff, put) are not made atomic here — callers
    keep them race-free by routing each URL to one worker. *)
val create : unit -> t

val find : t -> string -> entry option
val mem : t -> string -> bool
val document_count : t -> int

(** [mutations t] counts the calls that changed the current documents —
    {!put}, {!remove} of a stored URL and {!decode_snapshot} — over the
    store's lifetime.  Equal counts mean equal contents, so a view
    derived from the store can be reused until the count moves. *)
val mutations : t -> int

(** [gen t ~url] is the XID generator of the document's lineage
    (creating it on first use) — the Loader labels new versions with
    it. *)
val gen : t -> url:string -> Xy_xml.Xid.gen

(** [put t entry] stores [entry] as its URL's current version,
    replacing the previous one. *)
val put : t -> entry -> unit

(** [remove t ~url] drops a document (page disappeared). *)
val remove : t -> url:string -> unit

(** [allocate_docid t ~url] returns the stable DOCID for [url],
    allocating on first sight. *)
val allocate_docid : t -> url:string -> int

(** [has_docid t ~url] — whether a DOCID is already allocated for
    [url].  The parallel batch path pre-allocates ids serially (and
    journals only the fresh ones) before fanning documents out, so
    DOCID numbering never depends on load completion order. *)
val has_docid : t -> url:string -> bool

(** [allocate_dtdid t ~dtd] returns the stable DTDID for a DTD
    identifier. *)
val allocate_dtdid : t -> dtd:string -> int

(** [iter f t] iterates over current entries, in no fixed order: a
    restored store visits them in another order than the live one. *)
val iter : (entry -> unit) -> t -> unit

(** {2 Durability}

    A snapshot captures every current version (metadata plus printed
    tree) and the DOCID/DTDID allocation tables.  Trees are re-labelled
    with fresh XIDs on decode (XIDs are process-local; consumers strip
    them before they escape the warehouse). *)

val encode_snapshot : t -> string

(** [snapshot_pieces t] is {!encode_snapshot}'s bytes in pieces, to be
    written in order: each document's printed tree is a piece of its
    own, printed once and reused while the stored tree is physically
    the same value (an unchanged load keeps the old tree). *)
val snapshot_pieces : t -> string list

(** Replaces the store contents wholesale.  Raises
    {!Xy_util.Codec.Malformed} on damage. *)
val decode_snapshot : t -> string -> unit
