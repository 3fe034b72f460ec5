(** The first-class request side of the WebRacer service API.

    Every entry point — the [webracer serve] daemon, the [webracer call]
    client, the HTTP surface, and the one-shot CLI subcommands —
    constructs these values through {!make} and the typed builders
    below; {!of_line} is the single decode path from the
    newline-delimited JSON wire protocol, and [Api.dispatch] the single
    dispatch path. The builders and the decoder share one set of
    validation checks, so a request a client can construct is exactly a
    request the daemon will accept.

    Wire shape (one object per line, no raw newlines inside):

    {v
    {"schema_version":1, "id":<any>, "verb":"analyze", "params":{...}}
    v}

    ["schema_version"] defaults to {!Wr_support.Schema.version} when
    absent and is rejected when it names a version this build does not
    speak ({!Wr_support.Schema.supported} lists what it does). ["id"] is
    any JSON value, echoed verbatim on the response so clients can
    pipeline requests over one connection. ["trace"] is an optional
    non-empty string: a client-chosen trace id for end-to-end request
    tracing, echoed on the response and stamped on the daemon's log
    lines, telemetry spans and latency histograms (the daemon mints an
    internal id when absent). *)

module Config = Wr_browser.Config

(** Parameters shared by every page-analyzing verb; the JSON shape
    mirrors the [webracer run] flags. Only [page] is required on the
    wire. *)
type analyze_params = {
  page : string;  (** HTML of the main page *)
  resources : (string * string) list;
      (** URL -> body, wire shape [{"url": "body", ...}] *)
  seed : int;
  explore : bool;
  detector : Config.detector_kind;
      (** ["last-access"] (default), ["full-track"] or ["none"] *)
  hb : Wr_hb.Graph.strategy;  (** ["chain-vc"] (default), ["closure"], ["dfs"] *)
  time_limit : float;  (** virtual-ms horizon; servers may clamp it *)
  dedup : bool;
}

type explain_params = {
  target : analyze_params;
  race : int option;  (** 1-based selection, [None] = all races *)
}

type replay_params = {
  target : analyze_params;
  schedules : int;
  parse_delay : float;
  jobs : int;  (** parallelism for the schedule sweep, verdict-invariant *)
}

type predict_params = {
  target : analyze_params;
      (** only [page]/[resources]/[seed] matter unless [compare] *)
  compare : bool;  (** also run the dynamic detector and score recall *)
  lint : bool;  (** answer with the lint findings only *)
}

(** Parameters of the prediction-guided triage verb
    ([Wr_static.Triage.run]): predict, then run the baseline plus
    directed schedules until every prediction is confirmed, refuted
    (with a certificate) or the [budget] is exhausted. *)
type triage_params = {
  target : analyze_params;  (** only [page]/[resources]/[seed] matter *)
  budget : int;  (** max schedules, baseline included; must be >= 1 *)
  jobs : int;  (** server-side schedule parallelism, report-invariant *)
}

(** Parameters of the streaming [watch] verb (daemon-only, raw socket
    only): the daemon answers with one metrics-snapshot response per
    [interval_s] on the same connection, [count] times ([None] = until
    the connection closes). [webracer top] is the rendering client. *)
type watch_params = {
  interval_s : float;  (** must be positive; the daemon may clamp it *)
  count : int option;
}

type verb =
  | Ping
  | Stats
  | Metrics  (** latency histograms + Prometheus text; daemon-only *)
  | Watch of watch_params  (** periodic metrics snapshots; daemon-only *)
  | Analyze of analyze_params
  | Explain of explain_params
  | Replay of replay_params
  | Predict of predict_params
  | Triage of triage_params

type t = {
  id : Wr_support.Json.t;
  trace : string option;
  schema : int;  (** negotiated wire generation; responses mirror it *)
  verb : verb;
}

(** [make ?schema ?trace ~id verb] — the one request constructor.
    [schema] defaults to {!Wr_support.Schema.version} (v1);
    @raise Invalid_argument on an unsupported generation. *)
val make : ?schema:int -> ?trace:string -> id:Wr_support.Json.t -> verb -> t

(** {2 Typed builders}

    The programmatic mirror of the wire decoder: each builder runs the
    same validation the daemon applies when decoding, raising
    [Invalid_argument] where the decoder would answer [bad_request]. *)

(** [valid_time_limit ms] — the check every [time_limit] passes: finite
    and positive. Infinity or NaN would never end the event loop. *)
val valid_time_limit : float -> bool

(** [analyze_params ~page ()] with the same defaults as
    [Webracer.config]. *)
val analyze_params :
  page:string ->
  ?resources:(string * string) list ->
  ?seed:int ->
  ?explore:bool ->
  ?detector:Config.detector_kind ->
  ?hb:Wr_hb.Graph.strategy ->
  ?time_limit:float ->
  ?dedup:bool ->
  unit ->
  analyze_params

val analyze : analyze_params -> verb
val explain : ?race:int -> analyze_params -> verb
val replay : ?schedules:int -> ?parse_delay:float -> ?jobs:int -> analyze_params -> verb
val predict : ?compare:bool -> ?lint:bool -> analyze_params -> verb

(** [budget] defaults to {!Wr_static.Triage.default_budget}. *)
val triage : ?budget:int -> ?jobs:int -> analyze_params -> verb

val watch : ?interval_s:float -> ?count:int -> unit -> verb

val verb_name : verb -> string

(** The wire names of the [detector] and [hb] fields, in the order the
    CLI lists them. *)
val detector_names : (string * Config.detector_kind) list

val hb_names : (string * Wr_hb.Graph.strategy) list

(** Canonical JSON of the params (every field explicit, fixed order) —
    the wire encoding, and the [Cache] key material. *)
val analyze_params_to_json : analyze_params -> Wr_support.Json.t

(** [to_json t] is the wire document ({!of_json} round-trips it). *)
val to_json : t -> Wr_support.Json.t

val to_line : t -> string

(** {2 The HTTP surface mapping}

    Each verb's home on the HTTP endpoint; [Http] and the [--http]
    client derive routes from these so the two stay in lockstep. *)

(** ["GET"] for the side-effect-free status verbs, ["POST"] otherwise. *)
val http_method : verb -> string

(** [/v1/<verb>]; [None] for verbs with no HTTP mapping ([watch]). *)
val http_path : verb -> string option

(** The POST body: the request's ["params"] object ([None] when the verb
    takes no params — GET routes send no body). *)
val http_body : verb -> Wr_support.Json.t option

(** [of_json j] validates and decodes one request. [Error (id, msg)]
    carries the request's ["id"] when one was present, so the error
    response can still be correlated. *)
val of_json : Wr_support.Json.t -> (t, Wr_support.Json.t * string) result

(** [of_line s] parses one wire line then decodes it; JSON syntax errors
    come back as [Error (Null, msg)]. *)
val of_line : string -> (t, Wr_support.Json.t * string) result
