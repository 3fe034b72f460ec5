(** The daemon's minimal HTTP/1.1 surface.

    One small parser and encoder, just enough for a JSON API behind
    [curl] or any stock HTTP client: request line + headers +
    [Content-Length]-framed body, keep-alive connections, no chunked
    encoding, no TLS. The daemon sniffs the first bytes of each
    connection ({!sniff}), so the HTTP and raw line protocols share a
    single listening socket.

    Routing ({!route}) maps

    {v
    GET  /v1/ping | /v1/stats | /v1/metrics
    POST /v1/analyze | /v1/explain | /v1/replay | /v1/predict
    v}

    onto the line protocol's wire documents — [Request.of_json] remains
    the single decode path and [Api.dispatch] the single dispatch path.
    A POST body is the verb's ["params"] object; a body with a
    ["params"] member is taken as a full request envelope (its
    [id]/[trace]/[schema_version] ride along; the verb always comes from
    the path). An [x-webracer-trace] header seeds the trace id when the
    body carries none. Responses are always schema v2 ({!Response})
    with the closed error taxonomy mapped onto status codes
    (400/429/504/500; 404/405 for routing errors). *)

type req = {
  meth : string;
  path : string;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

(** [sniff data] classifies the first bytes of a connection: [`Http]
    when they start with an HTTP method keyword, [`Undecided] when
    [data] is still a proper prefix of one, [`Line] otherwise. *)
val sniff : string -> [ `Http | `Line | `Undecided ]

(** [parse data ~pos] parses one request from the bytes [pos, len) of
    [data] ([len] defaults to all of it), so a connection's input
    buffer is parsed in place: [`Req (r, pos')] consumes up to [pos'],
    [`More] needs more bytes, [`Bad] is a protocol error (the connection
    should be closed after answering 400). Only the head and the body
    of a complete request are copied out. [max_body] bounds the
    declared [Content-Length] (default 16 MiB, matching the line
    protocol's request cap). *)
val parse :
  ?max_body:int -> ?len:int -> Bytes.t -> pos:int ->
  [ `Req of req * int | `More | `Bad of string ]

val header : string -> req -> string option

(** [head ~status ~content_length] is the head of a keep-alive HTTP/1.1
    response with a JSON content type, up to and including the blank
    line. The body follows it on the wire as a separate write, so it is
    never copied to be framed. *)
val head : status:int -> content_length:int -> string

(** [route r] is the wire-protocol document for [r], or
    [Error (status, message)] — 404 for unknown paths, 405 for a method
    mismatch, 400 for an unusable body. *)
val route : req -> (Wr_support.Json.t, int * string) result
