(** The [webracer serve] daemon: a long-lived analysis service.

    One event loop on the calling domain — a [select] multiplexer over
    the listening socket, every connection and a wake-up pipe — owns
    every request end to end: accept, decode, admission, caching, watch
    subscriptions, latency histograms and encoding. Workers hand their
    results back through a mutex'd completion queue and a byte on the
    pipe; nothing else crosses domains.

    Each connection speaks one of two surfaces, decided by sniffing its
    first bytes: the newline-delimited JSON line protocol ({!Request}
    in, {!Response} out, many requests pipelined per connection), or
    minimal HTTP/1.1 ({!Http}) mapping [GET /v1/ping|stats|metrics] and
    [POST /v1/analyze|explain|replay|predict] onto the same dispatch,
    with the error taxonomy as status codes (400/429/504/500). HTTP
    responses are always schema v2 (HTTP-parity error objects);
    line-protocol responses speak the generation the request negotiated
    (v1 default, byte-stable).

    Work is fed to one {!Wr_support.Pool} of worker domains through a
    bounded admission queue:

    - [ping], [stats] and [metrics] answer inline from the loop;
    - [analyze] first consults the LRU result {!Cache} — a hit answers
      without touching a worker — then claims a queue slot;
    - a request arriving while [queue_cap] jobs are in flight gets an
      [overload] error immediately (backpressure, never a crash);
    - a job still unfinished [wall_limit] seconds after admission is
      answered with a [timeout] error; its worker keeps the slot until
      the analysis actually returns, so abandoned work still counts
      against the queue. Requested virtual horizons are clamped to
      [max_time_limit];
    - a worker exception answers [internal] and the daemon carries on
      (crash isolation is {!Api.dispatch}'s contract);
    - [watch] subscribes the connection to a periodic metrics-snapshot
      stream (one [ok] response per tick: queue, cache, per-stage
      latency, fleet profile and GC rows) — what [webracer top]
      renders.

    The daemon's telemetry context is its one metrics registry: the
    loop counts [serve.requests.<verb>] (or [.invalid]),
    [serve.responses.<outcome>], [serve.cache_hit]/[_miss],
    [serve.analyses_run], [serve.timeouts], [serve.queue_high_water]
    and the histograms [serve.latency.<stage>] there, and [stats],
    [metrics], [watch] and the Prometheus text all read them. It is
    also the flight recorder: request
    milestones ([request.admit], [.start], [.end], [.crash],
    [.deadline], each with its [trace_id]) and every log line (teed
    through {!Wr_support.Log.with_recorder}, whatever the log level)
    are marks on the recording domain's ring, beside the job spans.
    With [postmortem_dir] set, a worker crash, a blown deadline, or
    [dump] reading true (the CLI wires SIGUSR2 to it) dumps the newest
    256 entries of each ring as [postmortem-<n>-<reason>.jsonl] (header
    line with the in-flight requests and their trace ids, then one
    {!Wr_telemetry.Telemetry.tail_json} line per entry) plus a
    [.trace.json] Chrome trace of the same tail.

    Shutdown is graceful: once [stop] reads true (the CLI wires
    SIGINT/SIGTERM to it) the loop stops accepting and reading, drains
    its in-flight jobs and flushes every pending response; the daemon
    then joins the fleet, closes and returns its final stats
    document. *)

type address = Unix_socket of string | Tcp of int

type config = {
  address : address;
  jobs : int;  (** worker domains (the event loop is extra) *)
  queue_cap : int;  (** max in-flight jobs before [overload] *)
  cache_cap : int;  (** LRU entries; 0 disables the result cache *)
  wall_limit : float;  (** seconds per request; 0 = unlimited *)
  max_time_limit : float;  (** clamp on requested virtual horizons (ms) *)
  postmortem_dir : string option;  (** where postmortems are dumped *)
}

(** jobs 4, queue 128, cache 64, wall limit 60 s, virtual
    clamp 600 000 ms, no postmortem dir. *)
val default_config : address -> config

(** [run config] blocks until [stop] reads true, then drains and
    returns the final [stats] document. [stop] is polled at least every
    0.25 s. [on_ready] fires once listening, with the bound address
    ([Tcp 0] resolves to the kernel-chosen port). [on_stop] fires after
    the drain with the final [metrics] document (per-stage latency
    histograms, queue high-water, cache hit ratio, Prometheus text) —
    the CLI's [--metrics-out] hook.
    [telemetry] (default a fresh context) holds the daemon's counters
    and latency histograms and receives one span per job, named
    [<verb> [<trace id>]], the request milestones and the teed log
    lines; its rings keep each domain's most recent entries. Raises
    [Invalid_argument] if [telemetry] is not enabled.

    Every request is traced: a client-supplied ["trace"] id is echoed
    on the response and used verbatim; otherwise a [t-<n>] id is
    minted, counting up from [t-0]. Either way the id tags the request's JSONL
    log lines (via {!Wr_support.Log.with_trace}) and its telemetry
    span, so one id follows a request across the wire, the logs and the
    Chrome trace. SIGPIPE is ignored for the process (clients may
    vanish mid-response). *)
val run :
  ?stop:(unit -> bool) ->
  ?dump:(unit -> bool) ->
  ?on_ready:(address -> unit) ->
  ?on_stop:(Wr_support.Json.t -> unit) ->
  ?telemetry:Wr_telemetry.Telemetry.t ->
  config ->
  Wr_support.Json.t
