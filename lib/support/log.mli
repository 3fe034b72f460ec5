(** Leveled structured event log for the detection pipeline.

    Every layer (browser, detector, filters, top-level driver) reports
    what it is doing as {e events}: a severity, a dotted event name
    ([page.load], [filter.suppress], [detect.batch]) and a list of
    structured fields. Two outputs exist:

    - a human-readable line on [stderr], enabled by setting a level
      (default: disabled, so library users and tests see nothing);
    - a JSONL sink — one JSON object per line — for tooling
      ([webracer run --log-out FILE]).

    Control is global (the process analyzes one page at a time) and
    environment-driven so no plumbing is needed:

    - [WEBRACER_LOG=error|warn|info|debug|off] sets the level;
    - [WEBRACER_LOG_FILE=path] opens a JSONL sink at startup.

    Emission is cheap when disabled: {!enabled} is one comparison, and
    callers building expensive fields should guard on it. *)

type level = Error | Warn | Info | Debug

(** [level_of_string s] parses ["error"], ["warn"], ["info"], ["debug"]
    (case-insensitive); ["off"], ["none"] and [""] mean disabled. Unknown
    strings are [None] (treated as disabled when read from [WEBRACER_LOG]). *)
val level_of_string : string -> level option

(** [set_level l] sets the threshold; [None] disables all output. *)
val set_level : level option -> unit

val current_level : unit -> level option

(** [enabled l] — would an event at level [l] be recorded? *)
val enabled : level -> bool

(** [open_sink_file path] opens (truncates) [path] and installs it as the
    JSONL sink (one object per line:
    [{"ts":…,"level":…,"event":…,…fields}]), closing any sink previously
    opened by this function. Without a sink, events go to the stderr text
    renderer. *)
val open_sink_file : string -> unit

(** [close_sink ()] flushes, closes and detaches the sink. *)
val close_sink : unit -> unit

(** [with_trace ~trace_id ?span_id f] runs [f] with an ambient trace
    context on the calling domain: every event emitted inside [f] — from
    any layer, with no plumbing — gains [trace_id] (and [span_id], when
    given) fields, correlating log lines with the serve wire protocol's
    trace ids and the telemetry spans. Contexts nest (the innermost
    wins) and are restored on exception. *)
val with_trace : trace_id:string -> ?span_id:string -> (unit -> 'a) -> 'a

(** [current_trace ()] is the calling domain's ambient
    [(trace_id, span_id)], both [None] outside {!with_trace}. *)
val current_trace : unit -> string option * string option

(** [emit level event fields] records one event if [level] is enabled.
    [event] is a stable dotted name; fields are structured JSON. *)
val emit : level -> string -> (string * Json.t) list -> unit

(** [with_recorder record f] runs [f] with [record] installed as the
    process's log recorder: the level wrappers below call
    [record ("log." ^ level) fields] for every event, whatever the log
    level, with the ambient [trace_id] (when there is one) and the
    [event] name prepended to [fields]. A daemon routes this into its
    telemetry rings, so a postmortem keeps the context the live stream
    dropped. With no recorder installed the tee is one atomic read. On
    exit [record] is removed unless a later call has replaced it. *)
val with_recorder : (string -> (string * Json.t) list -> unit) -> (unit -> 'a) -> 'a

val error : string -> (string * Json.t) list -> unit

val warn : string -> (string * Json.t) list -> unit

val info : string -> (string * Json.t) list -> unit

val debug : string -> (string * Json.t) list -> unit
