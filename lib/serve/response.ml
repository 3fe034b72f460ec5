module Json = Wr_support.Json
module Schema = Wr_support.Schema

type code = Bad_request | Timeout | Overload | Internal

let code_name = function
  | Bad_request -> "bad_request"
  | Timeout -> "timeout"
  | Overload -> "overload"
  | Internal -> "internal"

let codes = [ Bad_request; Timeout; Overload; Internal ]
let code_of_name s = List.find_opt (fun c -> code_name c = s) codes

(* The HTTP surface maps the closed taxonomy onto status codes; the raw
   protocol's v2 error objects carry the same number so a client behind
   either surface retries on the same signal. *)
let http_status = function
  | Bad_request -> 400
  | Timeout -> 504
  | Overload -> 429
  | Internal -> 500

type t =
  | Ok of {
      id : Json.t;
      trace : string option;
      result : Json.t;
      schema : int;
    }
  | Error of {
      id : Json.t;
      trace : string option;
      code : code;
      message : string;
      schema : int;
    }

let ok ?(schema = Schema.version) ?trace ~id result = Ok { id; trace; result; schema }

let error ?(schema = Schema.version) ?trace ~id code message =
  Error { id; trace; code; message; schema }

let is_ok = function Ok _ -> true | Error _ -> false
let id = function Ok { id; _ } | Error { id; _ } -> id
let trace = function Ok { trace; _ } | Error { trace; _ } -> trace
let schema = function Ok { schema; _ } | Error { schema; _ } -> schema

let status = function
  | Ok _ -> 200
  | Error { code; _ } -> http_status code

(* The daemon stamps the negotiated generation at the single respond
   choke point, so inline answers, worker completions and timeout errors
   all agree. *)
let stamp ~schema = function
  | Ok r -> Ok { r with schema }
  | Error r -> Error { r with schema }

(* The "trace" field appears on the wire only when the request carried
   one, so untraced traffic is byte-identical to the pre-tracing
   protocol. *)
let trace_field = function
  | None -> []
  | Some tr -> [ ("trace", Json.String tr) ]

(* The daemon runs one event loop, so a v2 envelope always names loop 0. *)
let shard_field schema = if schema >= Schema.v2 then [ ("shard", Json.Int 0) ] else []

let error_obj ~schema code message =
  let http =
    if schema >= Schema.v2 then
      [ ("http_status", Json.Int (http_status code)) ]
    else []
  in
  Json.Obj
    (("code", Json.String (code_name code))
    :: http
    @ [ ("message", Json.String message) ])

let to_json = function
  | Ok { id; trace; result; schema } ->
      Json.Obj
        ((Schema.tag_of schema :: ("id", id) :: trace_field trace)
        @ shard_field schema
        @ [ ("ok", Json.Bool true); ("result", result) ])
  | Error { id; trace; code; message; schema } ->
      Json.Obj
        ((Schema.tag_of schema :: ("id", id) :: trace_field trace)
        @ shard_field schema
        @ [ ("ok", Json.Bool false); ("error", error_obj ~schema code message) ])

let to_line t = Json.to_string (to_json t)

let of_json j =
  match j with
  | Json.Obj fields -> (
      let id = Option.value ~default:Json.Null (List.assoc_opt "id" fields) in
      let trace =
        match List.assoc_opt "trace" fields with
        | Some (Json.String s) when s <> "" -> Some s
        | _ -> None
      in
      let schema =
        match List.assoc_opt Schema.field fields with
        | Some (Json.Int v) -> v
        | _ -> Schema.version
      in
      match List.assoc_opt "ok" fields with
      | Some (Json.Bool true) -> (
          match List.assoc_opt "result" fields with
          | Some result -> Stdlib.Ok (ok ~schema ~id ?trace result)
          | None -> Stdlib.Error "ok response without \"result\"")
      | Some (Json.Bool false) -> (
          match List.assoc_opt "error" fields with
          | Some (Json.Obj err) -> (
              let message =
                match List.assoc_opt "message" err with
                | Some (Json.String m) -> m
                | _ -> ""
              in
              match List.assoc_opt "code" err with
              | Some (Json.String c) -> (
                  match code_of_name c with
                  | Some code ->
                      Stdlib.Ok (error ~schema ~id ?trace code message)
                  | None -> Stdlib.Error (Printf.sprintf "unknown error code %S" c))
              | _ -> Stdlib.Error "error response without a string \"code\"")
          | _ -> Stdlib.Error "error response without an \"error\" object")
      | _ -> Stdlib.Error "response needs a boolean \"ok\" field")
  | _ -> Stdlib.Error "response must be a JSON object"

let of_line s =
  match Json.of_string s with
  | j -> of_json j
  | exception Json.Parse_error msg -> Stdlib.Error ("invalid JSON: " ^ msg)
