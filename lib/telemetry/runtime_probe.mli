(** GC observability from the runtime's own event stream.

    A probe is a self-monitoring [Runtime_events] consumer: it starts the
    runtime's event ring, attaches an in-process cursor, and drains it
    from a background thread, folding per-domain GC phase events
    (minor collections, major slices, stop-the-world sections — nested
    sub-phases flattened to their root pause) into:

    - per-domain pause histograms (ms) and GC-time totals ({!stats}),
      the source of [corpus --profile]'s GC table and the [gc] rows of
      the serve [watch] snapshots;
    - telemetry spans (category ["gc"]) via {!Telemetry.inject_span},
      so Chrome traces show GC slices on each domain's tid, interleaved
      with the analysis spans they interrupt.

    Ring indices are recycled across domain lifetimes, so the probe maps
    rings to OCaml domain ids with an announce user event written by
    every domain joining a [Wr_support.Pool] fleet (wired through
    [Pool.set_worker_hook] while a probe runs). Event timestamps are
    monotonic nanoseconds; a calibration event written at {!start}
    anchors them to wall-clock seconds for span injection.

    One probe runs per process ({!start} returns the active probe if one
    is already running). All failure paths degrade to an inert probe —
    GC observability is never worth crashing an analysis. *)

type t

(** Per-domain GC reading. [dom] is the OCaml domain id (joins
    [Pool.domain_stats.dom] and the Chrome-trace tid) — falls back to
    the raw ring index if the domain never announced itself. [pauses]
    holds every root GC pause in milliseconds. [gc_s] is total seconds
    spent inside root GC phases. *)
type domain_gc = {
  dom : int;
  ring : int;
  minor_pauses : int;
  major_slices : int;
  stw_pauses : int;
  pauses : Wr_support.Stats.Histo.t;
  gc_s : float;
}

(** [start ?telemetry ?interval_s ?inject_failure ()] starts (or
    returns the already-running) probe. [telemetry] receives GC spans
    and pause histograms (default {!Telemetry.disabled}: stats only).
    [interval_s] is the poll period of the drain thread (default 20 ms,
    clamped to >= 1 ms). [inject_failure] forces the creation path to
    raise — the test hook for the graceful-failure guarantee: on any
    setup error the result is an inert probe ([active] = false) and the
    failure is logged, never raised. *)
val start :
  ?telemetry:Telemetry.t ->
  ?interval_s:float ->
  ?inject_failure:bool ->
  unit ->
  t

(** [active t] — is [t] collecting? [false] for inert (failed) probes
    and after {!stop}. *)
val active : t -> bool

(** [stop t] joins the drain thread, takes a final exact drain, frees
    the cursor and pauses runtime event collection; idempotent. A new
    probe may be started afterwards. *)
val stop : t -> unit

(** The process-wide running probe, if any. *)
val current : unit -> t option

(** [stats t] is a point-in-time snapshot, one row per ring that
    recorded at least one pause, sorted by domain id. Exact after
    {!stop}. *)
val stats : t -> domain_gc list

(** [stats_json t] is the machine-readable reading:
    [{source: "runtime_events"; elapsed_s; lost_events; domains:
    [{dom; ring; minor_pauses; major_slices; stw_pauses; pause_ms:
    summary; gc_s; gc_share}]}]. *)
val stats_json : t -> Wr_support.Json.t

(** [render_stats t] is the CLI table: one row per domain — pause
    counts by kind, p50/p99/max pause (ms), total GC time and GC-time
    share of probe elapsed time. *)
val render_stats : t -> string
