(* The one run command, end to end: the built [xyleme] binary runs
   [simulate] on a small synthetic web, and each case checks what a
   user or a CI script reads from it — stdout, stderr and the exit
   status. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/xyleme_cli.exe"

(* The small web every case runs on; each case adds its --days. *)
let small = [ "--sites"; "2"; "--subscriptions"; "4"; "--seed"; "7" ]
let two_days = "--days" :: "2" :: small

let read_file path = In_channel.with_open_bin path In_channel.input_all
let starts_with prefix s = String.starts_with ~prefix s

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh path for a durable directory, removed afterwards. *)
let with_dir f =
  let dir = Filename.temp_file "xycli" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then remove dir) (fun () -> f dir)

let spawn args ~stdout ~stderr =
  Unix.create_process exe (Array.of_list (exe :: "simulate" :: args)) Unix.stdin stdout stderr

let exit_code pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "stopped by signal %d" s

let with_file suffix f =
  let path = Filename.temp_file "xycli" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [simulate args] runs the command to its end: exit status, stdout,
   stderr.  The streams go through files, so neither can block the
   other. *)
let simulate args =
  with_file ".out" @@ fun out ->
  with_file ".err" @@ fun err ->
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let ofd = fd out and efd = fd err in
  let pid = spawn args ~stdout:ofd ~stderr:efd in
  Unix.close ofd;
  Unix.close efd;
  let code = exit_code pid in
  (code, read_file out, read_file err)

let succeed args =
  let code, out, err = simulate args in
  if code <> 0 then Alcotest.failf "exit %d: %s" code err;
  (out, err)

(* The run's one summary line. *)
let summary out =
  match List.find_opt (starts_with "simulated ") (String.split_on_char '\n' out) with
  | Some line -> line
  | None -> Alcotest.failf "no summary line in %S" out

let is_digit c = c >= '0' && c <= '9'

let mentions s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The number after [key] in the summary line of [out]. *)
let count key out =
  let line = summary out in
  let key = key ^ " " in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then Alcotest.failf "no %S in %S" key line
    else if String.sub line i n = key && i + n < String.length line && is_digit line.[i + n]
    then
      let j = ref (i + n) in
      while !j < String.length line && is_digit line.[!j] do incr j done;
      int_of_string (String.sub line (i + n) (!j - i - n))
    else find (i + 1)
  in
  find 0

let test_served_stdout_equals_plain () =
  let plain, _ = succeed two_days in
  let served, err = succeed (two_days @ [ "--serve"; "0" ]) in
  checks "stdout with --serve 0" plain served;
  checkb "the port is announced on stderr" true
    (starts_with "serve: wire protocol on port " err)

(* Two kills: one in a crawl step before the first checkpoint, so the
   restore replays the WAL; one a step after the first checkpoint. *)
let test_killed_run_restores () =
  with_dir @@ fun base ->
  let baseline, _ = succeed (two_days @ [ "--durable"; base ]) in
  List.iter
    (fun k ->
      with_dir @@ fun dir ->
      let killed, _ =
        succeed (two_days @ [ "--durable"; dir; "--kill-after"; string_of_int k ])
      in
      checkb (Printf.sprintf "K=%d: killed" k) true
        (List.exists (starts_with "killed by injected crash at ")
           (String.split_on_char '\n' killed));
      let restored, _ = succeed (two_days @ [ "--durable"; dir; "--restore" ]) in
      checkb (Printf.sprintf "K=%d: restore line" k) true (starts_with "restored " restored);
      List.iter
        (fun key ->
          checki (Printf.sprintf "K=%d: %s" k key) (count key baseline) (count key restored))
        [ "stored"; "notifications"; "reports" ])
    [ 60; 100 ]

(* A [--durable] path whose parent does not exist yet is made whole,
   and the same path restores. *)
let test_nested_durable_path () =
  with_dir @@ fun root ->
  let dir = Filename.concat (Filename.concat root "kd") "base" in
  let run, _ = succeed (two_days @ [ "--durable"; dir ]) in
  checkb "the directory was made" true (Sys.is_directory dir);
  let restored, _ = succeed (two_days @ [ "--durable"; dir; "--restore" ]) in
  checkb "restore line" true (starts_with "restored " restored);
  checki "reports" (count "reports" run) (count "reports" restored)

let test_stats_xml_is_one_document () =
  let out, err = succeed (two_days @ [ "--stats"; "--xml" ]) in
  (match Xy_xml.Parser.parse out with
  | doc -> checks "root" "metrics" doc.Xy_xml.Types.root.Xy_xml.Types.tag
  | exception Xy_xml.Parser.Error { message; _ } ->
      Alcotest.failf "stdout is not one XML document: %s" message);
  checkb "the summary went to stderr" true (starts_with "simulated " err)

(* A strict JSON reader, enough to say a line holds exactly one value:
   each function returns the index just past what it read, or raises
   [Exit]. *)
let skip s i =
  let rec go i = if i < String.length s && String.contains " \t\r\n" s.[i] then go (i + 1) else i in
  go i

let token s i word =
  let i = skip s i in
  let n = String.length word in
  if i + n <= String.length s && String.sub s i n = word then i + n else raise Exit

let json_string s i =
  let i = skip s i in
  if i >= String.length s || s.[i] <> '"' then raise Exit;
  let is_hex c = is_digit c || String.contains "abcdefABCDEF" c in
  let rec go i =
    if i >= String.length s then raise Exit
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' when i + 1 < String.length s && String.contains "\"\\/bfnrt" s.[i + 1] -> go (i + 2)
      | '\\' when i + 5 < String.length s && s.[i + 1] = 'u'
                  && String.for_all is_hex (String.sub s (i + 2) 4) -> go (i + 6)
      | '\\' -> raise Exit
      | c when Char.code c < 0x20 -> raise Exit
      | _ -> go (i + 1)
  in
  go (i + 1)

let number s i =
  let n = String.length s in
  let digits i =
    let rec go j = if j < n && is_digit s.[j] then go (j + 1) else j in
    let j = go i in
    if j = i then raise Exit else j
  in
  let i = if i < n && s.[i] = '-' then i + 1 else i in
  let i = if i < n && s.[i] = '0' then i + 1 else digits i in
  let i = if i < n && s.[i] = '.' then digits (i + 1) else i in
  if i < n && (s.[i] = 'e' || s.[i] = 'E') then
    digits (if i + 1 < n && (s.[i + 1] = '+' || s.[i + 1] = '-') then i + 2 else i + 1)
  else i

let rec value s i =
  let i = skip s i in
  if i >= String.length s then raise Exit;
  match s.[i] with
  | '{' -> elements s (i + 1) '}' (fun i -> value s (token s (json_string s i) ":"))
  | '[' -> elements s (i + 1) ']' (value s)
  | '"' -> json_string s i
  | 't' -> token s i "true"
  | 'f' -> token s i "false"
  | 'n' -> token s i "null"
  | _ -> number s i

(* The comma-separated elements of an object or an array up to
   [close]. *)
and elements s i close element =
  let i = skip s i in
  if i < String.length s && s.[i] = close then i + 1
  else
    let rec go i =
      let i = skip s (element i) in
      if i < String.length s && s.[i] = ',' then go (i + 1)
      else token s i (String.make 1 close)
    in
    go i

let is_json_object line =
  match value line 0 with
  | stop -> skip line stop = String.length line && line.[skip line 0] = '{'
  | exception Exit -> false

let test_trace_jsonl_lines_are_objects () =
  checkb "the reader refuses a truncated object" false (is_json_object {|{"a":[1,2}|});
  checkb "the reader refuses two values" false (is_json_object {|{} {}|});
  checkb "the reader takes nested values" true
    (is_json_object {|{"a":[1,-2.5e3,{"b":null}],"c":"é\n","d":true}|});
  let out, _ = succeed (two_days @ [ "--trace=1"; "--jsonl" ]) in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  checkb "traces printed" true (lines <> []);
  List.iter
    (fun line ->
      if not (is_json_object line) then Alcotest.failf "not a JSON object: %s" line)
    lines;
  (* every document is traced, and the span stages of some journey run
     from fetch to the reporter *)
  checkb "a complete fetch → reporter journey" true
    (List.exists
       (fun line ->
         List.for_all
           (fun stage -> mentions line (Printf.sprintf {|"stage":"%s"|} stage))
           [ "crawler"; "alerters"; "mqp"; "reporter" ])
       lines)

let test_trace_prints_slowest_journeys () =
  let out, _ = succeed (two_days @ [ "--trace=1" ]) in
  checkb "span summary" true (mentions out "per-stage totals over retained traces:");
  checkb "slowest journeys" true (mentions out "slowest traces (end-to-end journeys first):");
  checki "five journeys" 5
    (List.length (List.filter (starts_with "trace #") (String.split_on_char '\n' out)))

let test_refused_arguments () =
  let code args = let c, _, _ = simulate args in c in
  checki "--days=-1" 2 (code ("--days=-1" :: small));
  (* cmdliner reads the -1 of "--days -1" as an option of its own and
     refuses the command line before the command runs *)
  checki "--days -1" 124 (code ("--days" :: "-1" :: small));
  checki "--kill-after without --durable" 2 (code (two_days @ [ "--kill-after"; "5" ]));
  checki "--xml without --stats" 2 (code (two_days @ [ "--xml" ]));
  checki "--jsonl without --trace" 2 (code (two_days @ [ "--jsonl" ]))

(* Reads [fd] until [enough] holds of what has arrived (told whether
   the stream has ended), for at most [seconds]: a broken command
   fails the case instead of hanging it. *)
let await fd ~seconds enough =
  let deadline = Unix.gettimeofday () +. seconds in
  let got = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    left > 0.
    &&
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> false
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> enough (Buffer.contents got) ~ended:true
        | n ->
            Buffer.add_subbytes got chunk 0 n;
            enough (Buffer.contents got) ~ended:false || go ())
  in
  go ()

(* A run until stopped ends at a step boundary on SIGTERM, exits 0 and
   prints its summary.  The signal goes out once the port is announced:
   the handler is installed by then. *)
let test_sigterm_ends_an_endless_run () =
  with_file ".out" @@ fun out ->
  let ofd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid = spawn ("--days" :: "0" :: "--serve" :: "0" :: small) ~stdout:ofd ~stderr:err_w in
  Unix.close ofd;
  Unix.close err_w;
  let give_up message =
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Alcotest.fail message
  in
  if
    not
      (await err_r ~seconds:30. (fun got ~ended:_ ->
           mentions got "serve: wire protocol on port "))
  then give_up "no port announced on stderr";
  Unix.kill pid Sys.sigterm;
  if not (await err_r ~seconds:30. (fun _ ~ended -> ended)) then
    give_up "still running 30 s after SIGTERM";
  Unix.close err_r;
  checki "exit status" 0 (exit_code pid);
  checkb "summary line" true (starts_with "simulated " (read_file out))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cli"
    [
      ( "simulate",
        [
          tc "a served run prints the plain run's stdout" test_served_stdout_equals_plain;
          tc "a killed durable run restores to the uninterrupted counts"
            test_killed_run_restores;
          tc "--stats --xml prints one XML document" test_stats_xml_is_one_document;
          tc "--trace=1 --jsonl prints only JSON objects" test_trace_jsonl_lines_are_objects;
          tc "--trace=1 prints the five slowest journeys" test_trace_prints_slowest_journeys;
          tc "refused command lines exit 2 (124 from cmdliner)" test_refused_arguments;
          tc "SIGTERM ends a run until stopped with its summary"
            test_sigterm_ends_an_endless_run;
          tc "a nested --durable path is made and restores" test_nested_durable_path;
        ] );
    ]
