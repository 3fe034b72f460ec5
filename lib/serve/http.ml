module Json = Wr_support.Json
module Schema = Wr_support.Schema

type req = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

(* The daemon sniffs the first bytes of every connection, so both
   surfaces share one port: an HTTP method keyword selects this parser,
   anything else (a '{', typically) stays on the line protocol. *)
let methods = [ "GET "; "POST "; "PUT "; "HEAD "; "DELETE "; "OPTIONS "; "PATCH " ]

let sniff data =
  if List.exists (fun m -> String.starts_with ~prefix:m data) methods then `Http
  else if
    (* a short buffer that is still a prefix of some method keyword
       ("POS", "GE") needs more bytes before we can rule HTTP out *)
    List.exists
      (fun m ->
        String.length data < String.length m
        && String.sub m 0 (String.length data) = data)
      methods
  then `Undecided
  else `Line

let max_head_bytes = 64 * 1024

(* The first CRLFCRLF of [data] in [pos, len): where the head ends. *)
let find_head_end data ~pos ~len =
  let rec go i =
    if i + 4 > len then None
    else if
      Bytes.get data i = '\r'
      && Bytes.get data (i + 1) = '\n'
      && Bytes.get data (i + 2) = '\r'
      && Bytes.get data (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go pos

let trim = String.trim

let parse_headers block =
  String.split_on_char '\n' block
  |> List.filter_map (fun line ->
         let line =
           if String.length line > 0 && line.[String.length line - 1] = '\r'
           then String.sub line 0 (String.length line - 1)
           else line
         in
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
             Some
               ( String.lowercase_ascii (trim (String.sub line 0 i)),
                 trim (String.sub line (i + 1) (String.length line - i - 1)) ))

let header name r = List.assoc_opt (String.lowercase_ascii name) r.headers

let parse ?(max_body = 16 * 1024 * 1024) ?len data ~pos =
  let len = Option.value ~default:(Bytes.length data) len in
  match find_head_end data ~pos ~len with
  | None ->
      if len - pos > max_head_bytes then
        `Bad "request headers exceed 64 KiB"
      else `More
  | Some head_end -> (
      let head = Bytes.sub_string data pos (head_end - pos) in
      let req_line, header_block =
        match String.index_opt head '\n' with
        | None -> (head, "")
        | Some i ->
            ( trim (String.sub head 0 i),
              String.sub head (i + 1) (String.length head - i - 1) )
      in
      match String.split_on_char ' ' req_line |> List.filter (( <> ) "") with
      | [ meth; path; version ]
        when String.starts_with ~prefix:"HTTP/1." version -> (
          let headers = parse_headers header_block in
          let content_length =
            match List.assoc_opt "content-length" headers with
            | None -> Some 0
            | Some v -> int_of_string_opt (trim v)
          in
          match content_length with
          | None -> `Bad "invalid Content-Length"
          | Some n when n < 0 -> `Bad "invalid Content-Length"
          | Some n when n > max_body ->
              `Bad (Printf.sprintf "request body exceeds %d bytes" max_body)
          | Some n ->
              let body_start = head_end + 4 in
              if len - body_start < n then `More
              else
                `Req
                  ( { meth; path; headers; body = Bytes.sub_string data body_start n },
                    body_start + n ))
      | _ -> `Bad (Printf.sprintf "malformed HTTP request line %S" req_line))

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

let head ~status ~content_length =
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: \
     %d\r\nConnection: keep-alive\r\n\r\n"
    status (status_reason status) content_length

(* --- routing ----------------------------------------------------------- *)

let routes =
  [
    ("/v1/ping", ("GET", "ping"));
    ("/v1/stats", ("GET", "stats"));
    ("/v1/metrics", ("GET", "metrics"));
    ("/v1/analyze", ("POST", "analyze"));
    ("/v1/explain", ("POST", "explain"));
    ("/v1/replay", ("POST", "replay"));
    ("/v1/predict", ("POST", "predict"));
    ("/v1/triage", ("POST", "triage"));
  ]

(* [route r] maps an HTTP request onto the line protocol's wire
   document, so [Request.of_json] stays the single decode path. The POST
   body is the params object; a body carrying a "params" member is
   treated as a full request envelope (its id/trace/schema_version ride
   along, the verb always comes from the path). *)
let route r =
  let path =
    match String.index_opt r.path '?' with
    | None -> r.path
    | Some i -> String.sub r.path 0 i
  in
  match List.assoc_opt path routes with
  | None -> Error (404, Printf.sprintf "no such endpoint %s" path)
  | Some (meth, _) when meth <> r.meth ->
      Error (405, Printf.sprintf "%s does not accept %s (use %s)" path r.meth meth)
  | Some (_, verb) -> (
      let envelope fields =
        let keep = [ "id"; "trace"; Schema.field ] in
        let kept = List.filter (fun (k, _) -> List.mem k keep) fields in
        let params =
          match List.assoc_opt "params" fields with
          | Some p -> [ ("params", p) ]
          | None -> []
        in
        let trace_hdr =
          match (List.assoc_opt "trace" kept, header "x-webracer-trace" r) with
          | None, Some tr when tr <> "" -> [ ("trace", Json.String tr) ]
          | _ -> []
        in
        Ok (Json.Obj (kept @ trace_hdr @ (("verb", Json.String verb) :: params)))
      in
      if trim r.body = "" then envelope []
      else
        match Json.of_string r.body with
        | exception Json.Parse_error m -> Error (400, "invalid JSON body: " ^ m)
        | Json.Obj fields when List.mem_assoc "params" fields -> envelope fields
        | Json.Obj _ as params ->
            envelope [ ("params", params) ]
        | _ -> Error (400, "request body must be a JSON object"))
