(* A deliberately minimal HTTP/1.1 server: connections served serially
   on the accept thread, every response closed.  It exists to expose
   read-only telemetry (scrapes are rare and tiny), not to serve
   traffic.  The socket and accept loop live in
   [Xy_serve.Listener] — shared with the wire-protocol server — so
   both endpoints get the same SO_REUSEADDR, bounded-backlog and
   close-once shutdown discipline instead of each growing its own. *)

let log_src = Logs.Src.create "xy.telemetry" ~doc:"Telemetry endpoint"

module Log = (val Logs.src_log log_src : Logs.LOG)

type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body =
  { status; content_type = "text/plain; version=0.0.4; charset=utf-8"; body }

let json ?(status = 200) body =
  { status; content_type = "application/json"; body }

let jsonl ?(status = 200) body =
  { status; content_type = "application/x-ndjson"; body }

type t = { listener : Xy_serve.Listener.t }

let status_text = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | _ -> "Other"

(* Read the request head (line + headers) without consuming a body:
   the endpoints are all GET, so everything up to CRLFCRLF is enough. *)
let read_request_target fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec fill () =
    if Buffer.length buf > 16384 then None
    else
      let seen = Buffer.contents buf in
      let has_end =
        let rec scan i =
          i >= 0
          && (String.length seen >= i + 4
              && String.sub seen i 4 = "\r\n\r\n"
             || scan (i - 1))
        in
        String.length seen >= 4 && scan (String.length seen - 4)
      in
      if has_end then Some seen
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if seen = "" then None else Some seen
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            fill ()
        | exception Unix.Unix_error _ -> None
  in
  match fill () with
  | None -> None
  | Some head -> (
      match String.index_opt head '\r' with
      | None -> None
      | Some eol -> (
          match String.split_on_char ' ' (String.sub head 0 eol) with
          | [ meth; target; _version ] ->
              (* strip any query string: routes are plain paths *)
              let path =
                match String.index_opt target '?' with
                | Some q -> String.sub target 0 q
                | None -> target
              in
              Some (meth, path)
          | _ -> None))

let write_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      status (status_text status) content_type (String.length body)
  in
  let payload = head ^ body in
  let n = String.length payload in
  let rec push off =
    if off < n then
      match Unix.write_substring fd payload off (n - off) with
      | written -> push (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
  in
  try push 0 with Unix.Unix_error _ -> ()

let handle routes fd =
  let response =
    match read_request_target fd with
    | None -> text ~status:500 "unreadable request\n"
    | Some (meth, _) when meth <> "GET" && meth <> "HEAD" ->
        text ~status:405 "only GET is served here\n"
    | Some (_, path) -> (
        match List.assoc_opt path routes with
        | None ->
            let known = String.concat " " (List.map fst routes) in
            text ~status:404 (Printf.sprintf "no route %s (try: %s)\n" path known)
        | Some produce -> (
            try produce ()
            with e ->
              text ~status:500
                (Printf.sprintf "handler failed: %s\n" (Printexc.to_string e))))
  in
  write_response fd response

let start ?(host = "127.0.0.1") ~port ~routes () =
  let listener =
    Xy_serve.Listener.start ~host ~backlog:16 ~port
      ~handle:(fun client _addr ->
        (try handle routes client with _ -> ());
        try Unix.close client with Unix.Unix_error _ -> ())
      ()
  in
  let t = { listener } in
  Log.info (fun m ->
      m "telemetry endpoint on http://%s:%d (%s)" host
        (Xy_serve.Listener.port t.listener)
        (String.concat " " (List.map fst routes)));
  t

let port t = Xy_serve.Listener.port t.listener
let stop t = Xy_serve.Listener.stop t.listener

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition of a metrics snapshot. *)

module Obs = Xy_obs.Obs

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let prometheus_of_snapshot (snapshot : Obs.Snapshot.t) =
  let number = Obs.Export.number in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let typed = Hashtbl.create 32 in
  let declare name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      add "# TYPE %s %s\n" name kind
    end
  in
  List.iter
    (fun entry ->
      let stage = sanitize entry.Obs.Snapshot.stage in
      let name =
        Printf.sprintf "xyleme_%s" (sanitize entry.Obs.Snapshot.name)
      in
      match entry.Obs.Snapshot.value with
      | Obs.Snapshot.Counter n ->
          let name = name ^ "_total" in
          declare name "counter";
          add "%s{stage=\"%s\"} %d\n" name stage n
      | Obs.Snapshot.Gauge v ->
          declare name "gauge";
          add "%s{stage=\"%s\"} %s\n" name stage (number v)
      | Obs.Snapshot.Histogram h ->
          declare name "histogram";
          (* one cumulative series per power of two, which are bucket
             bounds and so exact, then +Inf; the quantile gauges below
             carry the layout's full precision *)
          for i = 0 to Obs.Snapshot.buckets - 1 do
            let bound = Obs.Snapshot.upper_bound i in
            if fst (Float.frexp bound) = 0.5 then
              add "%s_bucket{stage=\"%s\",le=\"%s\"} %d\n" name stage
                (number bound)
                (Obs.Snapshot.count_le h bound)
          done;
          add "%s_bucket{stage=\"%s\",le=\"+Inf\"} %d\n" name stage
            h.Obs.Snapshot.count;
          add "%s_sum{stage=\"%s\"} %s\n" name stage
            (number h.Obs.Snapshot.sum);
          add "%s_count{stage=\"%s\"} %d\n" name stage h.Obs.Snapshot.count;
          (* bucket-estimated quantiles, precomputed for dashboards
             that do not run histogram_quantile *)
          List.iter
            (fun (q, label) ->
              let gauge = Printf.sprintf "%s_%s" name label in
              declare gauge "gauge";
              let v =
                if h.Obs.Snapshot.count = 0 then 0.
                else Obs.Snapshot.quantile h q
              in
              add "%s{stage=\"%s\"} %s\n" gauge stage (number v))
            [ (0.5, "p50"); (0.95, "p95"); (0.99, "p99") ])
    snapshot.Obs.Snapshot.entries;
  Buffer.contents buf
