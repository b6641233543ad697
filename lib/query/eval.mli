(** Query evaluation over document trees.

    Conjunctive select/from/where semantics: the [from] clause binds
    variables by nested iteration over path selections; bindings that
    satisfy every [where] condition contribute one instantiation of
    the [select] clause to the result.

    [contains] uses word semantics (case-insensitive whole-word match
    over the element's full text), consistent with the alerters'
    WordTable treatment of [self\\tag contains word]. *)

(** Evaluation environment. *)
type env = {
  context : Xy_xml.Types.element;  (** the query root ([self]) *)
  strings : (string * string) list;
      (** pseudo-variable bindings, e.g. [("URL", ...)]; consulted for
          a variable with no element binding *)
}

val env : ?strings:(string * string) list -> Xy_xml.Types.element -> env

exception Unbound_variable of string

(** [eval query env] returns the result nodes, one batch per
    satisfying binding of the [from] clause (duplicates preserved —
    the paper's report queries deduplicate explicitly). *)
val eval : Ast.t -> env -> Xy_xml.Types.node list

(** [distinct nodes] drops every node equal to an earlier one, keeping
    first occurrences in order: what [select distinct] applies to an
    answer. *)
val distinct : Xy_xml.Types.node list -> Xy_xml.Types.node list

(** [by_document query] is [Some domain] when [query], evaluated with no
    pseudo-variables over a view whose children are domain elements,
    decomposes by document: its first [from] binding has no base and a
    path of at least two steps starting with the named child step
    [domain], every other binding starts at a variable, and no [where]
    or [select] operand is a path from the context.  Its answer is then
    the concatenation, in the view's document order, of its answers
    over one-document views of [domain]'s documents, passed through
    {!distinct} when the query is [distinct].  [None] for any other
    query. *)
val by_document : Ast.t -> string option

(** [eval_wrapped ~name query env] wraps the results in a [<name>]
    element, the shape continuous-query notifications carry. *)
val eval_wrapped : name:string -> Ast.t -> env -> Xy_xml.Types.element

(** [word_contains ~word text] is the word-matching predicate used by
    [contains] (shared with the alerters). *)
val word_contains : word:string -> string -> bool

(** [words_of text] tokenizes [text] into lowercase words, the
    tokenization {!word_contains} matches against — the alerters index
    document words with it. *)
val words_of : string -> string list
