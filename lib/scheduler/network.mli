(** Simulated network fetches.

    The paper's races are triggered by real network variance (external
    scripts, iframes, images, XHR arriving in any order). Here a fetch
    resolves a URL against a page-provided resource table and completes on
    the event loop after a latency sampled from a seeded distribution —
    reproducible, but with exactly the reordering freedom real networks
    have. Per-URL latency overrides let tests and the adversarial-replay
    mode force a specific order. *)

type outcome = Fetched of string | Missing

type t

(** [create ~loop ~rng ~resolve ()] builds a network whose universe of
    resources is [resolve]. Default latency: exponential with mean
    [mean_latency] (default 20 ms) plus a 1 ms floor. *)
val create :
  loop:Event_loop.t ->
  rng:Wr_support.Rng.t ->
  resolve:(string -> string option) ->
  ?mean_latency:float ->
  ?tm:Wr_telemetry.Telemetry.t ->
  unit ->
  t

(** [fetch t ~url k] samples a latency, schedules the completion, and calls
    [k] with the outcome when the virtual clock reaches it. [cls] is the
    event-loop channel the completion lands on (default
    {!Event_loop.Net}; XHR sends pass [Xhr]) so schedule bias can steer
    fetch arrivals. *)
val fetch : ?cls:Event_loop.cls -> t -> url:string -> (outcome -> unit) -> unit

(** [set_latency t ~url ms] pins the latency for [url] (used to steer
    schedules). *)
val set_latency : t -> url:string -> float -> unit

(** [fetches t] counts fetches issued so far. *)
val fetches : t -> int
