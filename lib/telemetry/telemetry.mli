(** Structured telemetry for the detection pipeline — domain-safe.

    A context records three kinds of signal, all behind a single [enabled]
    flag so a disabled context is a near-no-op on hot paths:

    - {e spans}: nested timed regions ([with_span]) capturing wall-clock
      and virtual-time start/duration. Exclusive (self) time per category
      is what the phase-breakdown table reports, so the phases of one run
      sum to the root span's duration;
    - {e counters} and {e accounted time}: monotonic tallies ([incr]) and
      aggregate timers ([account]) for paths too hot to give each call its
      own span (the detector records one access per instrumented read or
      write). Accounted time is deducted from the enclosing span's self
      time, keeping the phase table additive;
    - {e histograms}: raw float samples ([observe]) summarized as
      count/mean/p50/p95/p99/max (scheduler queue depth, network latency).

    {b Domain model.} One context may be shared across OCaml 5 domains:
    each recording domain lazily gets its own {e sink} (span buffer,
    counter table, histogram buffers), so recording never contends across
    domains — the span stack, in particular, is per-domain, matching the
    per-domain dynamic call structure. Readers ([counters],
    [phase_totals], the exporters) merge all sinks: counters sum across
    domains, histograms concatenate, and spans keep the id of the domain
    that recorded them, which [to_chrome_trace] emits as the event's
    [tid] (one named thread row per domain). Reading while other domains
    record is safe and yields a point-in-time snapshot.

    Exporters: [to_chrome_trace] emits Chrome [trace_event] JSON loadable
    in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    [metrics_json] a compact summary; [phase_table] the CLI's breakdown. *)

type t

(** [disabled] is the shared inert context: every recording operation on
    it is a cheap guard-and-return. *)
val disabled : t

(** [create ?clock ()] builds an enabled context. [clock] returns
    seconds (default the monotonic [Wr_support.Clock.now]; only
    differences between readings are used); tests inject a fake clock. *)
val create : ?clock:(unit -> float) -> unit -> t

val enabled : t -> bool

(** [domains t] is the number of domains that have recorded into [t] so
    far (0 until the first recording operation). *)
val domains : t -> int

(** [set_virtual_clock t f] installs the virtual-time source (ms), e.g.
    [Event_loop.now], for the {e calling} domain's sink — each domain
    analyzes its own page and owns its own virtual clock. Until set,
    virtual timestamps on that domain read 0. *)
val set_virtual_clock : t -> (unit -> float) -> unit

(** [with_span t ~cat ~name f] runs [f] inside a span on the calling
    domain's stack. Spans nest with the dynamic call structure;
    exceptions still close the span. *)
val with_span : t -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** [mark t ~cat name] records an instant event (page lifecycle edges:
    DOMContentLoaded, load, ...). *)
val mark : t -> cat:string -> string -> unit

(** [inject_span t ~dom ~cat ~name ~start_s ~dur_s] records an
    already-completed span observed from outside the recording domain —
    the GC runtime probe ({!Runtime_probe}) turning [Runtime_events]
    phase events into trace slices. [start_s] is in seconds on the
    context's clock timeline; [dom] is the domain the
    span belongs to (its Chrome-trace tid). Injected spans sit at depth
    1 (outside [total_wall]'s depth-0 denominator, since GC time elapses
    inside the analysis spans it interrupts) and contribute to [cat]'s
    phase totals. *)
val inject_span :
  t -> dom:int -> cat:string -> name:string -> start_s:float -> dur_s:float -> unit

(** [incr t ?by name] bumps a monotonic counter (domain-local; merged
    readings sum across domains). *)
val incr : t -> ?by:int -> string -> unit

(** [set_counter t name v] overwrites a counter (final gauges). The
    overwrite is domain-local: a merged reading sums the last value
    written by each domain, so gauges written from a single domain read
    back exactly. *)
val set_counter : t -> string -> int -> unit

(** [observe t name v] appends a sample to histogram [name]. *)
val observe : t -> string -> float -> unit

(** [account t ~cat ~name f] times [f] into the aggregate timer
    [(cat, name)] without allocating a span, and attributes the time to
    [cat] in the phase totals (deducting it from the enclosing span). *)
val account : t -> cat:string -> name:string -> (unit -> 'a) -> 'a

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val counters : t -> (string * int) list
(** Sorted by name, summed across domains. *)

val counter_value : t -> string -> int
(** 0 when absent; summed across domains. *)

val histogram : t -> string -> histogram_summary option
(** Samples merged across domains. *)

val histograms : t -> (string * histogram_summary) list
(** Sorted by name. *)

(** [phase_totals t] is the exclusive wall seconds and virtual ms per
    category, merged across domains: span self-times plus accounted time,
    in canonical pipeline order (parse, js, dispatch, scheduler, net,
    detect, serve, page) followed by any other categories
    alphabetically. *)
val phase_totals : t -> (string * float * float) list

(** [total_wall t] is the summed duration of completed depth-0 spans
    across all domains — the denominator of the phase table's
    percentages. With several domains busy this counts work time (like
    CPU seconds), not elapsed time. *)
val total_wall : t -> float

val n_spans : t -> int

(** [phase_table t] renders the per-phase breakdown as an aligned text
    table (phase, wall ms, %, virtual ms) with a total row. *)
val phase_table : t -> string

(** [to_chrome_trace t] is the run as Chrome [trace_event] JSON:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one complete
    ("ph":"X") event per span carrying the recording domain's id as its
    [tid], a named thread row per domain, instants for marks, and counter
    events. *)
val to_chrome_trace : t -> Wr_support.Json.t

(** [metrics_json t] is the compact summary: phases, counters, histogram
    summaries, span count, domain count and total wall time. *)
val metrics_json : t -> Wr_support.Json.t
