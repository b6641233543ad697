type entry = { meta : Meta.t; tree : Xy_xml.Xid.tree option }

type record = {
  mutable entry : entry;
  gen : Xy_xml.Xid.gen;
  mutable printed : (Xy_xml.Xid.tree * string) option;
      (* the snapshot's print of [entry.tree], valid while the stored
         tree is physically this one: an unchanged load keeps its old
         tree, so most documents print once, not at every checkpoint *)
  mutable fields : (entry * string) option;
      (* the snapshot's bytes for [entry] up to the print, valid while
         the stored entry is physically this one: a document not
         loaded since the last checkpoint costs no encoding *)
}

type t = {
  by_url : (string, record) Hashtbl.t;
  docids : (string, int) Hashtbl.t;
  dtdids : (string, int) Hashtbl.t;
  mutable next_docid : int;
  mutable next_dtdid : int;
  mutable mutations : int;  (** puts, removes and snapshot decodes *)
  lock : Mutex.t;
      (* The parallel crawl pipeline loads disjoint URLs from several
         domains at once; the lock keeps the shared tables (and the id
         counters) coherent under that concurrency.  Per-URL update
         sequences remain single-threaded by routing (same URL -> same
         worker), so only table integrity needs protecting here, not
         compound find-then-put atomicity. *)
}

let create () =
  {
    by_url = Hashtbl.create 1024;
    docids = Hashtbl.create 1024;
    dtdids = Hashtbl.create 64;
    next_docid = 1;
    next_dtdid = 1;
    mutations = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let find t url =
  locked t (fun () ->
      Option.map (fun r -> r.entry) (Hashtbl.find_opt t.by_url url))

let mem t url = locked t (fun () -> Hashtbl.mem t.by_url url)
let document_count t = locked t (fun () -> Hashtbl.length t.by_url)
let mutations t = locked t (fun () -> t.mutations)

let record t url =
  match Hashtbl.find_opt t.by_url url with
  | Some r -> r
  | None ->
      let r =
        {
          entry =
            {
              meta =
                {
                  Meta.url;
                  docid = 0;
                  kind = Meta.Html_doc;
                  domain = None;
                  dtd = None;
                  dtdid = None;
                  signature = "";
                  last_accessed = 0.;
                  last_updated = 0.;
                  version = 0;
                };
              tree = None;
            };
          gen = Xy_xml.Xid.gen ();
          printed = None;
          fields = None;
        }
      in
      Hashtbl.replace t.by_url url r;
      r

let gen t ~url = locked t (fun () -> (record t url).gen)

let put t entry =
  locked t @@ fun () ->
  let r = record t entry.meta.Meta.url in
  t.mutations <- t.mutations + 1;
  r.entry <- entry

let remove t ~url =
  locked t @@ fun () ->
  if Hashtbl.mem t.by_url url then begin
    t.mutations <- t.mutations + 1;
    Hashtbl.remove t.by_url url
  end

let allocate_docid t ~url =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.docids url with
  | Some id -> id
  | None ->
      let id = t.next_docid in
      t.next_docid <- id + 1;
      Hashtbl.replace t.docids url id;
      id

let has_docid t ~url = locked t (fun () -> Hashtbl.mem t.docids url)

let allocate_dtdid t ~dtd =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.dtdids dtd with
  | Some id -> id
  | None ->
      let id = t.next_dtdid in
      t.next_dtdid <- id + 1;
      Hashtbl.replace t.dtdids dtd id;
      id

(* Runs [f] under the store lock: callbacks must not re-enter the
   store (every current caller only reads the entry it is handed). *)
let iter f t = locked t (fun () -> Hashtbl.iter (fun _ r -> f r.entry) t.by_url)

(* {2 Durable snapshot}

   A snapshot captures every current version (meta + printed tree)
   and the id-allocation tables.  Trees are re-labelled with fresh
   XIDs on decode; XIDs are process-local identities (every consumer
   strips them before leaving the warehouse), so lineages diverge
   harmlessly. *)

module Codec = Xy_util.Codec

let encode_opt_string buf = function
  | Some s ->
      Codec.bool buf true;
      Codec.string buf s
  | None -> Codec.bool buf false

let decode_opt_string r =
  if Codec.read_bool r then Some (Codec.read_string r) else None

let encode_opt_int buf = function
  | Some n ->
      Codec.bool buf true;
      Codec.int buf n
  | None -> Codec.bool buf false

let decode_opt_int r =
  if Codec.read_bool r then Some (Codec.read_int r) else None

(* By key: each key is bound once. *)
let sorted_bindings table =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let printed r tree =
  match r.printed with
  | Some (printed_tree, s) when printed_tree == tree -> s
  | Some _ | None ->
      let s = Xy_xml.Printer.element_to_string (Xy_xml.Xid.strip tree) in
      r.printed <- Some (tree, s);
      s

let fields url r =
  match r.fields with
  | Some (entry, s) when entry == r.entry -> s
  | Some _ | None ->
      let m = r.entry.meta in
      let buf = Buffer.create 256 in
      Codec.string buf url;
      Codec.int buf m.Meta.docid;
      Codec.bool buf (m.Meta.kind = Meta.Xml_doc);
      encode_opt_string buf m.Meta.domain;
      encode_opt_string buf m.Meta.dtd;
      encode_opt_int buf m.Meta.dtdid;
      Codec.string buf m.Meta.signature;
      Codec.float buf m.Meta.last_accessed;
      Codec.float buf m.Meta.last_updated;
      Codec.int buf m.Meta.version;
      (match r.entry.tree with
      | None -> Codec.bool buf false
      | Some tree ->
          Codec.bool buf true;
          Codec.int buf (String.length (printed r tree)));
      let s = Buffer.contents buf in
      r.fields <- Some (r.entry, s);
      s

(* A header, then each document's cached fields and cached print as
   pieces of their own, never joined. *)
let snapshot_pieces t =
  locked t @@ fun () ->
  let buf = Buffer.create 4096 in
  Codec.int buf t.next_docid;
  Codec.int buf t.next_dtdid;
  Codec.list buf
    (fun buf (url, id) ->
      Codec.string buf url;
      Codec.int buf id)
    (sorted_bindings t.docids);
  Codec.list buf
    (fun buf (dtd, id) ->
      Codec.string buf dtd;
      Codec.int buf id)
    (sorted_bindings t.dtdids);
  let documents = sorted_bindings t.by_url in
  Codec.int buf (List.length documents);
  Buffer.contents buf
  :: List.concat_map
       (fun (url, r) ->
         fields url r
         :: (match r.entry.tree with Some tree -> [ printed r tree ] | None -> []))
       documents

let encode_snapshot t = String.concat "" (snapshot_pieces t)

let decode_snapshot t payload =
  locked t @@ fun () ->
  let r = Codec.reader payload in
  let next_docid = Codec.read_int r in
  let next_dtdid = Codec.read_int r in
  let docids =
    Codec.read_list r (fun r ->
        let url = Codec.read_string r in
        let id = Codec.read_int r in
        (url, id))
  in
  let dtdids =
    Codec.read_list r (fun r ->
        let dtd = Codec.read_string r in
        let id = Codec.read_int r in
        (dtd, id))
  in
  let records =
    Codec.read_list r (fun r ->
        let url = Codec.read_string r in
        let docid = Codec.read_int r in
        let xml = Codec.read_bool r in
        let domain = decode_opt_string r in
        let dtd = decode_opt_string r in
        let dtdid = decode_opt_int r in
        let signature = Codec.read_string r in
        let last_accessed = Codec.read_float r in
        let last_updated = Codec.read_float r in
        let version = Codec.read_int r in
        let tree = decode_opt_string r in
        ( url,
          {
            Meta.url;
            docid;
            kind = (if xml then Meta.Xml_doc else Meta.Html_doc);
            domain;
            dtd;
            dtdid;
            signature;
            last_accessed;
            last_updated;
            version;
          },
          tree ))
  in
  Codec.expect_end r;
  t.mutations <- t.mutations + 1;
  Hashtbl.reset t.by_url;
  Hashtbl.reset t.docids;
  Hashtbl.reset t.dtdids;
  t.next_docid <- next_docid;
  t.next_dtdid <- next_dtdid;
  List.iter (fun (url, id) -> Hashtbl.replace t.docids url id) docids;
  List.iter (fun (dtd, id) -> Hashtbl.replace t.dtdids dtd id) dtdids;
  List.iter
    (fun (url, meta, tree) ->
      let rec' = record t url in
      let tree, printed =
        match tree with
        | None -> (None, None)
        | Some printed ->
            let tree =
              Xy_xml.Xid.label rec'.gen (Xy_xml.Parser.parse_element printed)
            in
            (Some tree, Some (tree, printed))
      in
      rec'.entry <- { meta; tree };
      rec'.printed <- printed)
    records
