(** The serving surface's protocol verbs.

    One frame on the wire is one {!Xy_durable.Record_log} record — the
    same format as every durable file: anything that fails to frame
    is a protocol error and the peer closes the connection.  The
    record's payload is a sequence of {!Xy_util.Codec} fields
    beginning with a verb string; {!decode_request} and
    {!decode_event} map payloads to the typed protocol messages. *)

(** {2 Protocol messages} *)

type request =
  | Hello of string  (** bind this connection to a recipient id *)
  | Subscribe of { owner : string; text : string }
  | Unsubscribe of string
  | Status
  | Ack of int  (** cumulative: acknowledges every seq [<= n] *)
  | Ping of string

type event =
  | Welcome of int  (** pending (unacknowledged) report count *)
  | Okay of string
  | Err of string
  | Status_reply of string
  | Pong of string
  | Report of { seq : int; subscription : string; at : float; body : string }

(** Encoders return a complete frame, ready to write. *)
val encode_request : request -> string

val encode_event : event -> string

(** Decoders take a frame payload (from {!Xy_durable.Record_log.next}). *)
val decode_request : string -> (request, string) result

val decode_event : string -> (event, string) result
