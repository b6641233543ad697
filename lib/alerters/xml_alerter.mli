(** The XML Alerter (paper §6.3).

    Detects content and element-level atomic events on warehoused XML
    documents:

    - [self\\tag] — the document contains an element with [tag];
    - [self\\tag (strict) contains word] — via the paper's
      WordTable → TagTable structure, driven by a postfix traversal of
      the DOM tree that keeps, for the node being processed, the set
      of interesting words of its subtree (contains) and of its direct
      data children (strict contains);
    - [(new|updated|deleted) self\\tag (contains word)] — change
      patterns, evaluated against the XID delta computed by the loader
      between the stored version and the fetched one;
    - [self contains word] for XML documents.

    The detection also gathers, for change-pattern conditions, the
    affected elements — the "requested data" that flows opaquely
    through the Monitoring Query Processor to the Reporter (the
    [<Member>...</Member>] payloads of the paper's example report). *)

type t

val create : Xy_events.Registry.t -> t

(** One detection outcome: the sorted event codes plus, for
    change-pattern events, the elements that raised them. *)
type detection = {
  codes : int list;
  data : (int * Xy_xml.Types.element list) list;
}

(** [detect t ~result] inspects a loader result (XML documents only —
    returns no events for HTML). *)
val detect : t -> result:Xy_warehouse.Loader.result -> detection

(** [detect_delta t ~result] is the change-pattern half of {!detect}:
    the events raised by the loader's delta alone ([[]] for new,
    unchanged and HTML pages).  With {!detect_tree} on the stripped
    tree it makes up {!detect}. *)
val detect_delta : t -> result:Xy_warehouse.Loader.result -> detection

(** [detect_deleted t ~tree] raises the [deleted self\\tag] events for
    a document that disappeared ([tree] is its last stored version). *)
val detect_deleted : t -> tree:Xy_xml.Xid.tree -> detection

(** [detect_tree t root] runs only the *current-content* conditions
    ([self\\tag], [(strict) contains], [self contains]) over an
    arbitrary element tree — no change patterns.  The alerter chain
    uses it on leniently-parsed HTML, so element-level conditions
    apply to HTML pages too (which are never warehoused, hence have no
    deltas). *)
val detect_tree : t -> Xy_xml.Types.element -> int list

val condition_count : t -> int
