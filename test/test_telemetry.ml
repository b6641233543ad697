(* Tests for xy_telemetry: the Prometheus text rendering of an xy_obs
   snapshot, and the live HTTP endpoint — started on an ephemeral
   port, scraped over a real socket, and shut down cleanly. *)

module Obs = Xy_obs.Obs
module Telemetry = Xy_telemetry.Telemetry

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A registry with one instrument of each kind. *)
let sample_snapshot () =
  let obs = Obs.create () in
  Obs.Counter.add (Obs.counter obs ~stage:"crawler" "documents_fetched") 42;
  Obs.Gauge.set (Obs.gauge obs ~stage:"reporter" "buffer_depth") 3.;
  let h = Obs.histogram obs ~stage:"mqp" "lat" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 50. ];
  Obs.snapshot obs

(* ------------------------------------------------------------------ *)
(* Prometheus rendering *)

let test_prometheus_shape () =
  let text = Telemetry.prometheus_of_snapshot (sample_snapshot ()) in
  checkb "counter is _total" true
    (contains ~sub:"xyleme_documents_fetched_total{stage=\"crawler\"} 42" text);
  checkb "counter TYPE line" true
    (contains ~sub:"# TYPE xyleme_documents_fetched_total counter" text);
  checkb "gauge" true
    (contains ~sub:"xyleme_buffer_depth{stage=\"reporter\"} 3" text);
  checkb "cumulative buckets" true
    (contains ~sub:"xyleme_lat_bucket{stage=\"mqp\",le=\"1\"} 1" text
    && contains ~sub:"xyleme_lat_bucket{stage=\"mqp\",le=\"8\"} 2" text
    && contains ~sub:"xyleme_lat_bucket{stage=\"mqp\",le=\"+Inf\"} 3" text);
  checkb "histogram count" true
    (contains ~sub:"xyleme_lat_count{stage=\"mqp\"} 3" text);
  checkb "quantile gauges" true
    (contains ~sub:"xyleme_lat_p99" text && contains ~sub:"xyleme_lat_p50" text);
  checkb "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  (* Exposition-format well-formedness: every non-comment line is
     "name{labels} value" with a parseable float value, and no TYPE
     is declared twice. *)
  let types = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if line <> "" then
        if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then (
          checkb (Printf.sprintf "TYPE once: %s" line) false
            (Hashtbl.mem types line);
          Hashtbl.replace types line ())
        else if line.[0] <> '#' then
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "sample without value: %s" line
          | Some i -> (
              let value =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match float_of_string_opt value with
              | Some _ -> ()
              | None -> Alcotest.failf "unparseable value in: %s" line))
    (String.split_on_char '\n' text)

(* The [le] series: one per power of two the layout spans (2^-30 to
   2^40), each counting exactly the samples at or below it, strictly
   increasing and cumulative, ending in +Inf equal to [_count]. *)
let test_histogram_le_series () =
  let samples = [ 0.; 1e-12; 3e-7; 0.5; 5.; 64.; 64.5; 3e6; 2e12 ] in
  let obs = Obs.create () in
  let h = Obs.histogram obs ~stage:"mqp" "lat" in
  List.iter (Obs.Histogram.observe h) samples;
  let text = Telemetry.prometheus_of_snapshot (Obs.snapshot obs) in
  let prefix = "xyleme_lat_bucket{stage=\"mqp\",le=\"" in
  let series =
    List.filter_map
      (fun line ->
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          let close = String.index_from line n '"' in
          let le = String.sub line n (close - n) in
          let count =
            String.sub line (close + 3) (String.length line - close - 3)
          in
          Some
            ( float_of_string (if le = "+Inf" then "inf" else le),
              int_of_string count )
        else None)
      (String.split_on_char '\n' text)
  in
  checki "one series per power of two, plus +Inf" 72 (List.length series);
  List.iteri
    (fun i (le, count) ->
      if i < 71 then
        checkb
          (Printf.sprintf "le %d is 2^%d" i (i - 30))
          true
          (le = ldexp 1. (i - 30));
      checki
        (Printf.sprintf "le=%g counts the samples at or below it" le)
        (List.length (List.filter (fun v -> v <= le) samples))
        count)
    series;
  checkb "ends in +Inf" true (fst (List.nth series 71) = infinity);
  checkb "+Inf equals _count" true
    (contains
       ~sub:
         (Printf.sprintf "xyleme_lat_count{stage=\"mqp\"} %d"
            (List.length samples))
       text)

(* ------------------------------------------------------------------ *)
(* The live endpoint *)

(* Minimal HTTP/1.1 GET over a blocking socket; returns (status,
   headers, body).  The server closes after each response, so "read
   to EOF" delimits the body. *)
let http_get ~port ?(meth = "GET") path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path
      in
      let _ = Unix.write_substring sock req 0 (String.length req) in
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let header_end =
        match String.index_opt raw '\r' with
        | Some _ -> (
            let rec find i =
              if i + 4 > String.length raw then String.length raw
              else if String.sub raw i 4 = "\r\n\r\n" then i
              else find (i + 1)
            in
            find 0)
        | None -> String.length raw
      in
      let head = String.sub raw 0 header_end in
      let body =
        if header_end + 4 <= String.length raw then
          String.sub raw (header_end + 4) (String.length raw - header_end - 4)
        else ""
      in
      let status =
        match String.split_on_char ' ' head with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "bad status line: %s" head
      in
      (status, head, body))

let with_server routes f =
  let server = Telemetry.start ~port:0 ~routes () in
  Fun.protect ~finally:(fun () -> Telemetry.stop server) (fun () ->
      f (Telemetry.port server))

let test_endpoint_scrape () =
  let routes =
    [
      ( "/metrics",
        fun () ->
          Telemetry.text (Telemetry.prometheus_of_snapshot (sample_snapshot ()))
      );
      ("/health", fun () -> Telemetry.json "{\"ok\": true}");
    ]
  in
  with_server routes @@ fun port ->
  checkb "ephemeral port assigned" true (port > 0);
  let status, head, body = http_get ~port "/metrics" in
  checki "metrics 200" 200 status;
  checkb "prometheus content type" true (contains ~sub:"text/plain" head);
  checkb "prometheus body" true
    (contains ~sub:"xyleme_documents_fetched_total" body);
  let status, head, body = http_get ~port "/health" in
  checki "health 200" 200 status;
  checkb "json content type" true (contains ~sub:"application/json" head);
  checks "health body" "{\"ok\": true}" body;
  (* A query string routes to the bare path. *)
  let status, _, _ = http_get ~port "/health?verbose=1" in
  checki "query string stripped" 200 status;
  (* Unknown path: 404 naming the known routes. *)
  let status, _, body = http_get ~port "/nope" in
  checki "404" 404 status;
  checkb "404 lists routes" true (contains ~sub:"/metrics" body);
  (* Non-GET: 405. *)
  let status, _, _ = http_get ~port ~meth:"POST" "/metrics" in
  checki "405 for POST" 405 status

let test_handler_exception_is_500 () =
  with_server [ ("/boom", fun () -> failwith "handler bug") ] @@ fun port ->
  let status, _, _ = http_get ~port "/boom" in
  checki "500" 500 status;
  (* The server survives a handler failure. *)
  let status, _, _ = http_get ~port "/boom" in
  checki "still serving" 500 status

let test_stop_closes_port () =
  let server =
    Telemetry.start ~port:0 ~routes:[ ("/x", fun () -> Telemetry.text "y") ] ()
  in
  let port = Telemetry.port server in
  Telemetry.stop server;
  (match http_get ~port "/x" with
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | _, _, _ -> Alcotest.fail "stopped server must refuse connections");
  (* stop is idempotent *)
  Telemetry.stop server

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "telemetry"
    [
      ( "prometheus",
        [
          tc "exposition shape" test_prometheus_shape;
          tc "histogram le series" test_histogram_le_series;
        ] );
      ( "endpoint",
        [
          tc "scrape" test_endpoint_scrape;
          tc "handler exception" test_handler_exception_is_500;
          tc "stop closes port" test_stop_closes_port;
        ] );
    ]
