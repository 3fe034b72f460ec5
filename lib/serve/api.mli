(** The single dispatch path from {!Request.t} values to results.

    Both the daemon's worker domains and the one-shot CLI subcommands go
    through this module, so a page analyzed over the socket and one
    analyzed by [webracer run --json] produce byte-identical documents
    (modulo [wall_clock_s]). *)

module Race = Wr_detect.Race

val analyze :
  ?trace:bool ->
  ?telemetry:Wr_telemetry.Telemetry.t ->
  Request.analyze_params ->
  Webracer.report

(** [select_races report ~race] builds the explain selection: every
    race, or the 1-based [race] only, each paired with its 1-based
    index. [Error] is the out-of-range message (a bad request, not an
    internal error). *)
val select_races : Webracer.report -> race:int option -> ((int * Race.t) list, string) result

(** [explain_json report selection] — the explain document:
    [{"schema_version":1, "races":n, "filtered":n, "witnesses":[...]}],
    each witness derived and encoded by one {!Wr_explain.encoder} for the
    report. [webracer explain --json] writes exactly this. *)
val explain_json : Webracer.report -> (int * Race.t) list -> Wr_support.Json.t

val replay : Request.replay_params -> Webracer.Replay.verdict

(** [predict_json p] — the static predictor's document
    ([Wr_static.Predict.to_json]): lint-only when [p.lint], with a
    ["compare"] section scored against a fresh dynamic run when
    [p.compare]. [webracer predict --json] writes exactly this. *)
val predict_json :
  ?telemetry:Wr_telemetry.Telemetry.t ->
  Request.predict_params ->
  Wr_support.Json.t

(** [ping_result] is the constant [{"pong":true}]. *)
val ping_result : Wr_support.Json.t

(** [dispatch ?stats ?metrics req] runs the request to completion on the
    calling domain and never raises: analysis exceptions become
    [Internal] error responses (crash isolation), explain selection
    errors [Bad_request]. The request's trace id (when present) is
    echoed on every response. [stats] and [metrics] supply those verbs'
    results — the daemon passes its live counters and latency
    histograms; the defaults answer with an [Internal] error since a
    one-shot process has no service state. *)
val dispatch :
  ?stats:(unit -> Wr_support.Json.t) ->
  ?metrics:(unit -> Wr_support.Json.t) ->
  Request.t ->
  Response.t
