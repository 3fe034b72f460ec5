module Config = Wr_browser.Config
module Json = Wr_support.Json
module Schema = Wr_support.Schema

type analyze_params = {
  page : string;
  resources : (string * string) list;
  seed : int;
  explore : bool;
  detector : Config.detector_kind;
  hb : Wr_hb.Graph.strategy;
  time_limit : float;
  dedup : bool;
}

type explain_params = { target : analyze_params; race : int option }

type replay_params = {
  target : analyze_params;
  schedules : int;
  parse_delay : float;
  jobs : int;
}

type predict_params = { target : analyze_params; compare : bool; lint : bool }

type triage_params = { target : analyze_params; budget : int; jobs : int }

type watch_params = { interval_s : float; count : int option }

type verb =
  | Ping
  | Stats
  | Metrics
  | Watch of watch_params
  | Analyze of analyze_params
  | Explain of explain_params
  | Replay of replay_params
  | Predict of predict_params
  | Triage of triage_params

type t = { id : Json.t; trace : string option; schema : int; verb : verb }

(* --- validation (shared by the wire decoder and the typed builders) ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* [nan <= 0.] is false, so the sign test alone would let NaN through;
   neither NaN nor infinity ever ends the event loop or a watch stream. *)
let valid_time_limit ms = Float.is_finite ms && ms > 0.

let check_analyze p =
  if not (valid_time_limit p.time_limit) then
    bad "\"time_limit\" must be a positive finite number";
  p

let check_watch w =
  if not (valid_time_limit w.interval_s) then
    bad "\"interval_s\" must be a positive finite number";
  (match w.count with
  | Some n when n < 1 -> bad "\"count\" must be a positive integer"
  | _ -> ());
  w

let check_explain e =
  (match e.race with
  | Some n when n < 1 -> bad "\"race\" must be a positive integer"
  | _ -> ());
  e

let check_replay r =
  if r.schedules < 1 then bad "\"schedules\" must be at least 1";
  if r.parse_delay < 0. then bad "\"parse_delay\" must be non-negative";
  if r.jobs < 1 then bad "\"jobs\" must be at least 1";
  r

let check_triage (t : triage_params) =
  if t.budget < 1 then bad "\"budget\" must be at least 1";
  if t.jobs < 1 then bad "\"jobs\" must be at least 1";
  t

(* --- the typed builders ------------------------------------------------ *)

let make ?(schema = Schema.version) ?trace ~id verb =
  if not (Schema.is_supported schema) then
    invalid_arg
      (Printf.sprintf "Request.make: unsupported schema_version %d" schema);
  { id; trace; schema; verb }

(* Builders are the programmatic mirror of the wire decoder: the same
   checks run on both paths, so a request the CLI or HTTP client can
   construct is exactly a request the daemon would accept. Misuse raises
   [Invalid_argument] (the decoder turns the same condition into a
   [bad_request] wire error). *)
let building check v = try check v with Bad m -> invalid_arg m

let analyze_params ~page ?(resources = []) ?(seed = 0) ?(explore = true)
    ?(detector = Config.Last_access) ?(hb = Wr_hb.Graph.default_strategy)
    ?(time_limit = 60_000.) ?(dedup = true) () =
  building check_analyze
    { page; resources; seed; explore; detector; hb; time_limit; dedup }

let analyze p = Analyze p

let explain ?race target =
  Explain (building check_explain { target; race })

let replay ?(schedules = 25) ?(parse_delay = 2.) ?(jobs = 1) target =
  Replay (building check_replay { target; schedules; parse_delay; jobs })

let predict ?(compare = false) ?(lint = false) target =
  Predict { target; compare; lint }

let triage ?(budget = Wr_static.Triage.default_budget) ?(jobs = 1) target =
  Triage (building check_triage { target; budget; jobs })

let watch ?(interval_s = 1.) ?count () =
  Watch (building check_watch { interval_s; count })

let verb_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Watch _ -> "watch"
  | Analyze _ -> "analyze"
  | Explain _ -> "explain"
  | Replay _ -> "replay"
  | Predict _ -> "predict"
  | Triage _ -> "triage"

let detector_names =
  [ ("last-access", Config.Last_access); ("full-track", Config.Full_track);
    ("none", Config.No_detector) ]

let hb_names =
  [ ("chain-vc", Wr_hb.Graph.Chain_vc); ("dfs", Wr_hb.Graph.Dfs) ]

let name_of assoc v = fst (List.find (fun (_, x) -> x = v) assoc)

(* --- encoding ---------------------------------------------------------- *)

let analyze_params_to_json p =
  Json.Obj
    [
      ("page", Json.String p.page);
      ("resources", Json.Obj (List.map (fun (u, b) -> (u, Json.String b)) p.resources));
      ("seed", Json.Int p.seed);
      ("explore", Json.Bool p.explore);
      ("detector", Json.String (name_of detector_names p.detector));
      ("hb", Json.String (name_of hb_names p.hb));
      ("time_limit", Json.Float p.time_limit);
      ("dedup", Json.Bool p.dedup);
    ]

let params_to_json = function
  | Ping | Stats | Metrics -> []
  | Watch { interval_s; count } ->
      [
        ( "params",
          Json.Obj
            (("interval_s", Json.Float interval_s)
            :: (match count with
               | Some n -> [ ("count", Json.Int n) ]
               | None -> [])) );
      ]
  | Analyze p -> [ ("params", analyze_params_to_json p) ]
  | Explain { target; race } ->
      let extra =
        match race with None -> [] | Some n -> [ ("race", Json.Int n) ]
      in
      let fields =
        match analyze_params_to_json target with
        | Json.Obj fields -> fields @ extra
        | _ -> assert false
      in
      [ ("params", Json.Obj fields) ]
  | Replay { target; schedules; parse_delay; jobs } ->
      let fields =
        match analyze_params_to_json target with
        | Json.Obj fields ->
            fields
            @ [
                ("schedules", Json.Int schedules);
                ("parse_delay", Json.Float parse_delay);
                ("jobs", Json.Int jobs);
              ]
        | _ -> assert false
      in
      [ ("params", Json.Obj fields) ]
  | Predict { target; compare; lint } ->
      let fields =
        match analyze_params_to_json target with
        | Json.Obj fields ->
            fields
            @ [ ("compare", Json.Bool compare); ("lint", Json.Bool lint) ]
        | _ -> assert false
      in
      [ ("params", Json.Obj fields) ]
  | Triage { target; budget; jobs } ->
      let fields =
        match analyze_params_to_json target with
        | Json.Obj fields ->
            fields @ [ ("budget", Json.Int budget); ("jobs", Json.Int jobs) ]
        | _ -> assert false
      in
      [ ("params", Json.Obj fields) ]

let to_json t =
  Json.Obj
    ((Schema.tag_of t.schema
     :: (if t.id = Json.Null then [] else [ ("id", t.id) ]))
    @ (match t.trace with
      | Some tr -> [ ("trace", Json.String tr) ]
      | None -> [])
    @ (("verb", Json.String (verb_name t.verb)) :: params_to_json t.verb))

let to_line t = Json.to_string (to_json t)

(* --- the HTTP surface mapping ------------------------------------------ *)

let http_method = function
  | Ping | Stats | Metrics -> "GET"
  | Watch _ | Analyze _ | Explain _ | Replay _ | Predict _ | Triage _ -> "POST"

let http_path = function
  | Ping -> Some "/v1/ping"
  | Stats -> Some "/v1/stats"
  | Metrics -> Some "/v1/metrics"
  | Analyze _ -> Some "/v1/analyze"
  | Explain _ -> Some "/v1/explain"
  | Replay _ -> Some "/v1/replay"
  | Predict _ -> Some "/v1/predict"
  | Triage _ -> Some "/v1/triage"
  | Watch _ -> None (* streaming: raw-socket only *)

let http_body verb =
  match params_to_json verb with [ ("params", p) ] -> Some p | _ -> None

(* --- decoding ---------------------------------------------------------- *)

let field name fields = List.assoc_opt name fields

let get_int name fields ~default =
  match field name fields with
  | None -> default
  | Some (Json.Int i) -> i
  | Some _ -> bad "%S must be an integer" name

let get_bool name fields ~default =
  match field name fields with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "%S must be a boolean" name

let get_float name fields ~default =
  match field name fields with
  | None -> default
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some _ -> bad "%S must be a number" name

let get_enum name assoc fields ~default =
  match field name fields with
  | None -> default
  | Some (Json.String s) -> (
      match List.assoc_opt s assoc with
      | Some v -> v
      | None ->
          bad "%S must be one of %s" name
            (String.concat ", " (List.map (fun (k, _) -> Printf.sprintf "%S" k) assoc)))
  | Some _ -> bad "%S must be a string" name

let decode_analyze fields =
  let page =
    match field "page" fields with
    | Some (Json.String s) -> s
    | Some _ -> bad "\"page\" must be a string"
    | None -> bad "\"params\" needs a \"page\" field"
  in
  let resources =
    match field "resources" fields with
    | None -> []
    | Some (Json.Obj entries) ->
        List.map
          (function
            | (url, Json.String body) -> (url, body)
            | (url, _) -> bad "resource %S must map to a string body" url)
          entries
    | Some _ -> bad "\"resources\" must be an object of url -> body"
  in
  check_analyze
    {
      page;
      resources;
      seed = get_int "seed" fields ~default:0;
      explore = get_bool "explore" fields ~default:true;
      detector = get_enum "detector" detector_names fields ~default:Config.Last_access;
      hb = get_enum "hb" hb_names fields ~default:Wr_hb.Graph.default_strategy;
      time_limit = get_float "time_limit" fields ~default:60_000.;
      dedup = get_bool "dedup" fields ~default:true;
    }

let decode_verb verb params =
  let params_fields =
    match params with
    | None -> []
    | Some (Json.Obj fields) -> fields
    | Some _ -> bad "\"params\" must be an object"
  in
  match verb with
  | "ping" -> Ping
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "watch" ->
      let interval_s = get_float "interval_s" params_fields ~default:1. in
      let count =
        match field "count" params_fields with
        | None -> None
        | Some (Json.Int n) -> Some n
        | Some _ -> bad "\"count\" must be a positive integer"
      in
      Watch (check_watch { interval_s; count })
  | "analyze" -> Analyze (decode_analyze params_fields)
  | "explain" ->
      let race =
        match field "race" params_fields with
        | None -> None
        | Some (Json.Int n) -> Some n
        | Some _ -> bad "\"race\" must be a positive integer"
      in
      Explain (check_explain { target = decode_analyze params_fields; race })
  | "replay" ->
      Replay
        (check_replay
           {
             target = decode_analyze params_fields;
             schedules = get_int "schedules" params_fields ~default:25;
             parse_delay = get_float "parse_delay" params_fields ~default:2.;
             jobs = get_int "jobs" params_fields ~default:1;
           })
  | "predict" ->
      Predict
        {
          target = decode_analyze params_fields;
          compare = get_bool "compare" params_fields ~default:false;
          lint = get_bool "lint" params_fields ~default:false;
        }
  | "triage" ->
      Triage
        (check_triage
           {
             target = decode_analyze params_fields;
             budget =
               get_int "budget" params_fields
                 ~default:Wr_static.Triage.default_budget;
             jobs = get_int "jobs" params_fields ~default:1;
           })
  | other ->
      bad
        "unknown verb %S (expected ping, stats, metrics, watch, analyze, \
         explain, predict, triage or replay)"
        other

let of_json j =
  let id = ref Json.Null in
  let trace = ref None in
  let schema = ref Schema.version in
  match
    match j with
    | Json.Obj fields ->
        (match field "id" fields with Some v -> id := v | None -> ());
        (match field Schema.field fields with
        | None -> ()
        | Some (Json.Int v) when Schema.is_supported v -> schema := v
        | Some (Json.Int v) ->
            bad "unsupported schema_version %d (this server speaks %s)" v
              (Schema.supported_names ())
        | Some _ -> bad "%S must be an integer" Schema.field);
        (match field "trace" fields with
        | None -> ()
        | Some (Json.String s) when s <> "" -> trace := Some s
        | Some _ -> bad "\"trace\" must be a non-empty string");
        let verb =
          match field "verb" fields with
          | Some (Json.String s) -> s
          | Some _ -> bad "\"verb\" must be a string"
          | None -> bad "request needs a \"verb\" field"
        in
        decode_verb verb (field "params" fields)
    | _ -> bad "request must be a JSON object"
  with
  | verb -> Ok { id = !id; trace = !trace; schema = !schema; verb }
  | exception Bad msg -> Error (!id, msg)

let of_line s =
  match Json.of_string s with
  | j -> of_json j
  | exception Json.Parse_error msg -> Error (Json.Null, "invalid JSON: " ^ msg)
