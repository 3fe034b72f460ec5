(** The response side of the WebRacer service API.

    Wire shape (one object per line), by negotiated generation:

    {v
    v1 (default, byte-stable):
    {"schema_version":1, "id":<echoed>, "ok":true,  "result":{...}}
    {"schema_version":1, "id":<echoed>, "ok":false,
     "error":{"code":"overload", "message":"..."}}

    v2 (opt-in; HTTP surface is v2-native):
    {"schema_version":2, "id":<echoed>, "shard":0, "ok":true, "result":{...}}
    {"schema_version":2, "id":<echoed>, "shard":0, "ok":false,
     "error":{"code":"overload", "http_status":429, "message":"..."}}
    v}

    The v2 ["shard"] field names the event loop that answered. The
    daemon runs one loop, so it is always [0]; it stays on the envelope
    so v2 clients keep decoding the same bytes.

    The error taxonomy is closed and machine-readable: clients dispatch
    on ["error"]["code"] (or, over HTTP, the status line — the mapping is
    fixed), never on the human-oriented message. *)

(** - [Bad_request]: the request line failed to parse, validate or
      decode; retrying unchanged cannot succeed.
    - [Timeout]: the per-request wall-clock or virtual-time budget
      expired; the partial work is discarded.
    - [Overload]: the daemon's bounded queue was full when the request
      arrived — backpressure, not failure; retry later.
    - [Internal]: the analysis raised; the daemon survives (crash
      isolation) and other requests are unaffected. *)
type code = Bad_request | Timeout | Overload | Internal

val code_name : code -> string

(** Every code, in the order above. *)
val codes : code list

val code_of_name : string -> code option

(** The fixed taxonomy-to-HTTP mapping: 400 / 504 / 429 / 500. *)
val http_status : code -> int

type t =
  | Ok of {
      id : Wr_support.Json.t;
      trace : string option;
      result : Wr_support.Json.t;
      schema : int;
    }
  | Error of {
      id : Wr_support.Json.t;
      trace : string option;
      code : code;
      message : string;
      schema : int;
    }

val ok :
  ?schema:int -> ?trace:string -> id:Wr_support.Json.t ->
  Wr_support.Json.t -> t

val error :
  ?schema:int -> ?trace:string -> id:Wr_support.Json.t ->
  code -> string -> t

val is_ok : t -> bool
val id : t -> Wr_support.Json.t

(** [trace t] is the echoed trace id: present exactly when the request
    carried a ["trace"] field, making untraced traffic byte-identical to
    the pre-tracing wire protocol. *)
val trace : t -> string option

(** The wire generation this response is encoded at. *)
val schema : t -> int

(** [status t] is the HTTP status line for [t]: 200 for [Ok], the
    {!http_status} of the code otherwise. *)
val status : t -> int

(** [stamp ~schema t] re-encodes [t] at the request's negotiated
    generation; v1 responses stay byte-identical. *)
val stamp : schema:int -> t -> t

val to_json : t -> Wr_support.Json.t

(** [to_line t] is the compact one-line wire encoding (JSON string
    escaping guarantees no embedded newline). *)
val to_line : t -> string

(** [of_json j] decodes a response (the client side). *)
val of_json : Wr_support.Json.t -> (t, string) result

val of_line : string -> (t, string) result
