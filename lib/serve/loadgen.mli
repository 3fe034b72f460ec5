(** Barrier-synchronized load generation against a running daemon —
    the [webracer bench-serve] engine.

    [run cfg] opens [conns] connections (one OS thread each — the
    clients spend their lives blocked in socket I/O, so threads beat
    domains here), holds every thread at a barrier until all are
    connected, then releases them simultaneously for [duration]
    seconds of sustained load. The measured window therefore contains
    only request traffic, never connection setup.

    On the raw surface each connection keeps up to [pipeline] requests
    outstanding, matching responses back to their send timestamps by
    request id (async completions overtake inline answers, so arrival
    order proves nothing). On the HTTP surface requests are sequential
    round trips ([pipeline] is ignored — the daemon serializes
    responses per connection).

    The result merges every thread's tallies: sustained throughput,
    the full round-trip latency histogram (p50/p95/p99/p999 via
    [Wr_support.Stats.Histo.summary_json]), and the response-class
    distribution ([ok], [overload], [timeout], ...) — the interesting
    part under deliberate overload. *)

type surface = Raw | Http

type config = {
  address : Daemon.address;
  conns : int;  (** concurrent connections, one thread each *)
  pipeline : int;  (** outstanding requests per connection (raw only) *)
  duration : float;  (** seconds of sustained load *)
  verb : Request.verb;  (** sent repeatedly; must have an HTTP endpoint
                            when [surface = Http] *)
  surface : surface;
  schema : int;  (** wire generation for raw requests *)
}

type result = {
  duration_s : float;  (** measured window (barrier release to join) *)
  conns_run : int;
  pipeline_run : int;
  sent : int;
  received : int;
  throughput_rps : float;  (** received / duration *)
  classes : (string * int) list;  (** outcome -> count, sorted by name *)
  latency : Wr_support.Stats.Histo.t;  (** round trip, seconds *)
}

val run : config -> result

(** The [--json-out] document: duration, counts, throughput,
    latency summary and the class distribution. *)
val to_json : result -> Wr_support.Json.t
