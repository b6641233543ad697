module Codec = Xy_util.Codec

type request =
  | Hello of string
  | Subscribe of { owner : string; text : string }
  | Unsubscribe of string
  | Status
  | Ack of int
  | Ping of string

type event =
  | Welcome of int
  | Okay of string
  | Err of string
  | Status_reply of string
  | Pong of string
  | Report of { seq : int; subscription : string; at : float; body : string }

let payload_of fill =
  let buf = Buffer.create 64 in
  fill buf;
  Buffer.contents buf

let encode_request r =
  Xy_durable.Record_log.encode
  @@ payload_of (fun buf ->
         match r with
         | Hello id ->
             Codec.string buf "HELLO";
             Codec.string buf id
         | Subscribe { owner; text } ->
             Codec.string buf "SUBSCRIBE";
             Codec.string buf owner;
             Codec.string buf text
         | Unsubscribe name ->
             Codec.string buf "UNSUBSCRIBE";
             Codec.string buf name
         | Status -> Codec.string buf "STATUS"
         | Ack seq ->
             Codec.string buf "ACK";
             Codec.int buf seq
         | Ping token ->
             Codec.string buf "PING";
             Codec.string buf token)

let encode_event e =
  Xy_durable.Record_log.encode
  @@ payload_of (fun buf ->
         match e with
         | Welcome pending ->
             Codec.string buf "WELCOME";
             Codec.int buf pending
         | Okay info ->
             Codec.string buf "OK";
             Codec.string buf info
         | Err msg ->
             Codec.string buf "ERR";
             Codec.string buf msg
         | Status_reply xml ->
             Codec.string buf "STATUS";
             Codec.string buf xml
         | Pong token ->
             Codec.string buf "PONG";
             Codec.string buf token
         | Report { seq; subscription; at; body } ->
             Codec.string buf "REPORT";
             Codec.int buf seq;
             Codec.string buf subscription;
             Codec.float buf at;
             Codec.string buf body)

let decoding payload f =
  match
    let r = Codec.reader payload in
    let v = f r in
    Codec.expect_end r;
    v
  with
  | v -> Ok v
  | exception Codec.Malformed m -> Error m

let decode_request payload =
  decoding payload @@ fun r ->
  match Codec.read_string r with
  | "HELLO" -> Hello (Codec.read_string r)
  | "SUBSCRIBE" ->
      let owner = Codec.read_string r in
      let text = Codec.read_string r in
      Subscribe { owner; text }
  | "UNSUBSCRIBE" -> Unsubscribe (Codec.read_string r)
  | "STATUS" -> Status
  | "ACK" -> Ack (Codec.read_int r)
  | "PING" -> Ping (Codec.read_string r)
  | verb -> raise (Codec.Malformed (Printf.sprintf "unknown verb %S" verb))

let decode_event payload =
  decoding payload @@ fun r ->
  match Codec.read_string r with
  | "WELCOME" -> Welcome (Codec.read_int r)
  | "OK" -> Okay (Codec.read_string r)
  | "ERR" -> Err (Codec.read_string r)
  | "STATUS" -> Status_reply (Codec.read_string r)
  | "PONG" -> Pong (Codec.read_string r)
  | "REPORT" ->
      let seq = Codec.read_int r in
      let subscription = Codec.read_string r in
      let at = Codec.read_float r in
      let body = Codec.read_string r in
      Report { seq; subscription; at; body }
  | verb -> raise (Codec.Malformed (Printf.sprintf "unknown verb %S" verb))
