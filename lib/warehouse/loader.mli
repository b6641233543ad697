(** The loading pipeline: fetch result → parsed, classified,
    versioned warehouse entry.

    For each page handed over by the crawler the loader parses it (XML
    only — HTML pages are not warehoused, "we have their signature and
    we can only detect whether they have changed or not"), computes
    the content signature, determines the change status, diffs against
    the stored version and updates the repository.  The returned
    {!result} is exactly what the alerters need to detect atomic
    events.

    The signature is computed first: a page whose signature equals the
    stored one, loaded as the kind it was stored as, is unchanged, and
    the loader returns the stored metadata (with a fresh access date)
    and tree without parsing it again. *)

type status = New | Unchanged | Updated

type result = {
  meta : Meta.t;
  status : status;
  doc : Xy_xml.Types.doc option;
      (** parsed document (XML only); [None] for an unchanged page,
          which is not parsed again *)
  tree : Xy_xml.Xid.tree option;  (** new current labelled tree (XML only) *)
  delta : Xy_diff.Delta.t;  (** changes vs the stored version ([[]] if new/unchanged/HTML) *)
}

type t

(** Loading metrics (new/updated/unchanged/deleted/rejected counters,
    [unchanged_fast] for unchanged pages served without a parse, and a
    load-latency histogram) are registered under the [warehouse] stage
    of [obs] (default {!Xy_obs.Obs.default}). *)
val create :
  ?domains:Domains.t ->
  ?obs:Xy_obs.Obs.t ->
  store:Store.t ->
  clock:Xy_util.Clock.t ->
  unit ->
  t

val store : t -> Store.t
val domains : t -> Domains.t

(** How to interpret the fetched content. *)
type content_kind = Xml | Html | Auto

exception Rejected of string
(** Raised when an XML page does not parse: the warehouse refuses the
    document (the crawler will retry on the next refresh). *)

(** [load t ~url ~content ~kind] ingests one fetched page.  Content
    whose signature equals the stored entry's is [Unchanged]; when
    [kind] also agrees with the stored kind ([Auto] agrees unless an
    XML-looking page was stored as HTML) nothing is parsed and [doc]
    is [None].  Otherwise an unchanged page is parsed as before and
    keeps its stored metadata. *)
val load : t -> url:string -> content:string -> kind:content_kind -> result

(** [delete t ~url] records the disappearance of a page and removes it
    from the warehouse.  Returns the last metadata if the page was
    known. *)
val delete : t -> url:string -> Meta.t option

(** [validate result] checks a loaded XML document against the
    declarations of its internal DTD subset, if any ([[]] for HTML,
    undeclared or declaration-free documents).  The warehouse stores
    nonconforming documents anyway — the web is messy — but the
    violations are available to loaders that want to log or filter.
    An unchanged page that was not parsed again gives [[]]: it was
    checked when its content was first loaded. *)
val validate : result -> Xy_xml.Dtd.violation list
