(* These run millions of times per checkpoint at 10^5 subscriptions,
   so they avoid intermediate concatenations. *)
let int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf '\n'

(* %h is hexadecimal float notation: every finite float round-trips
   exactly through [float_of_string], and so do infinities ("%h" gives
   "infinity") and nan. *)
let float buf f =
  Buffer.add_string buf (Printf.sprintf "%h" f);
  Buffer.add_char buf '\n'

let bool buf b =
  Buffer.add_char buf (if b then '1' else '0');
  Buffer.add_char buf '\n'

let string buf s =
  int buf (String.length s);
  Buffer.add_string buf s

let list buf item xs =
  int buf (List.length xs);
  List.iter (item buf) xs

type reader = { data : string; mutable pos : int }

exception Malformed of string

let reader data = { data; pos = 0 }
let fail msg = raise (Malformed msg)

(* Reads up to the next '\n' (consumed, not returned). *)
let token r =
  match String.index_from_opt r.data r.pos '\n' with
  | None -> fail "unterminated field"
  | Some nl ->
      let s = String.sub r.data r.pos (nl - r.pos) in
      r.pos <- nl + 1;
      s

let read_int r =
  match int_of_string_opt (token r) with
  | Some i -> i
  | None -> fail "bad int"

let read_float r =
  match float_of_string_opt (token r) with
  | Some f -> f
  | None -> fail "bad float"

let read_bool r =
  match token r with "1" -> true | "0" -> false | _ -> fail "bad bool"

let read_string r =
  let len = read_int r in
  if len < 0 || r.pos + len > String.length r.data then fail "bad string length"
  else begin
    let s = String.sub r.data r.pos len in
    r.pos <- r.pos + len;
    s
  end

let read_list r item =
  let n = read_int r in
  if n < 0 then fail "bad list length" else List.init n (fun _ -> item r)

let read_span r f =
  let start = r.pos in
  let v = f r in
  (v, String.sub r.data start (r.pos - start))

let at_end r = r.pos >= String.length r.data
let expect_end r = if not (at_end r) then fail "trailing bytes"
