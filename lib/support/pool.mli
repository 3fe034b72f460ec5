(** A fleet of OCaml 5 domains around one shared task queue.

    The analysis pipeline is embarrassingly parallel at page granularity:
    every page (or seed, or corpus site) builds its own graph, detector
    and VM, so nothing mutable crosses domains unguarded (the few
    domain-local caches, e.g. the JS regex cache, live in [Domain.DLS]).
    This pool is the one shared primitive. Every worker sleeps on one
    mutex-guarded FIFO. [submit] queues a single task; [map] queues one
    drain task per worker and drains on the submitter too, each lane
    claiming the next input index from one atomic cursor. Items are
    independent and take milliseconds, so balancing per item costs one
    atomic per item and needs no stealing.

    Two policies keep the fleet from running slower than sequential:

    - {b Hardware capping.} [create ~jobs] spawns at most
      [hardware_domains () - 1] workers regardless of [jobs]: in OCaml 5
      every minor collection is a stop-the-world rendezvous across all
      domains, so oversubscribing cores multiplies GC barrier cost
      instead of adding throughput. [jobs] is a ceiling, not a promise.
    - {b Minor-heap tuning.} Spawned workers enlarge their (domain-local)
      minor heaps — default 4M words, override with
      [WEBRACER_MINOR_HEAP_WORDS] (0 disables) — cutting the
      stop-the-world minor-GC rate ~16x for allocation-heavy corpus
      work.

    [map] is deterministic: results come back in input order, independent
    of which lane ran which item, so parallel runs aggregate
    byte-identically to sequential ones. *)

type t

(** Per-domain profile: what one lane of the fleet did. [worker] 0 is
    the submitting domain (which helps drain [map] batches); workers 1..
    are the spawned domains, one row per job even where hardware capping
    spawned fewer. [dom] is the slot's OCaml domain id (the telemetry
    Chrome-trace tid, and the join key against
    [Wr_telemetry.Runtime_probe] GC rows); [-1] until the worker has
    started. Accounting is per item: [tasks] counts items this lane ran,
    [queue_wait_s] sums each item's start minus its batch's start (or
    its [submit] time) — 0 for a lone lane — and the GC figures are this
    domain's [Gc.quick_stat] deltas summed across its items
    (minor/major collection counts, promoted and minor-allocated words).
    Every item is charged to exactly the lane that ran it, so per-lane
    rows partition the batch. *)
type domain_stats = {
  worker : int;
  dom : int;
  tasks : int;
  queue_wait_s : float;
  run_s : float;
  idle_s : float;
  gc_minor : int;
  gc_major : int;
  promoted_words : float;
  minor_words : float;
}

(** Fleet profile: per-domain rows plus the items submitted. [stolen]
    always reads 0: nothing is stolen any more, and the field stays only
    because the end-to-end benchmark still reports it as [pool.steals]. *)
type stats = { per_domain : domain_stats list; submitted : int; stolen : int }

(** [create ~jobs ()] spawns up to [jobs - 1] worker domains, capped at
    [hardware_domains () - 1] ([jobs <= 1], or one hardware thread,
    spawns none and [map] degenerates to a sequential loop on the
    submitter). [?min_workers] (default 0) overrides the hardware cap
    upward for clients that require spawned domains — [submit] tasks
    only ever run on workers, so the serve daemon passes
    [~min_workers:jobs]. *)
val create : ?min_workers:int -> jobs:int -> unit -> t

(** [stats pool] reads the fleet profile. Item figures are exact
    between [map] calls; idle time lands when a worker next wakes, so
    the whole profile is exact after [close]. While tasks run it is a
    benign point-in-time snapshot. *)
val stats : t -> stats

(** [render_stats stats] is the profile as an aligned text table (one
    row per lane) plus the number of submitted items. *)
val render_stats : stats -> string

(** [stats_json stats] is the same fleet profile as a JSON document
    ([per_domain] rows with the [render_stats] fields, plus
    [submitted]) — machine-readable for [corpus --profile --json] and
    the serve [watch] snapshots. *)
val stats_json : stats -> Json.t

(** [set_worker_hook f] installs a process-wide callback run once by
    every domain joining a pool (each spawned worker, and the submitter
    at [create]). [Wr_telemetry.Runtime_probe] uses it to bind GC event
    rings to fleet domains; exceptions from [f] are swallowed. *)
val set_worker_hook : (unit -> unit) -> unit

(** The requested parallelism ceiling ([~jobs] as passed, floored at 1). *)
val jobs : t -> int

(** [map pool f xs] applies [f] to every element, spread item by item
    across the submitter and every worker, and returns the results in
    input order. If any [f] raises, the exception of the lowest-indexed
    failing item is re-raised after every item has finished. A pool is
    reusable across [map] calls but runs a single [map] at a time; the
    batch completes even while every worker is busy with [submit]
    tasks, since the submitter drains it too. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [submit pool f] queues fire-and-forget work for the workers; the
    submitter never runs it, so the pool must have at least one spawned
    worker (see [min_workers]) — a workerless or closed pool raises
    [Invalid_argument]. [f] delivers its own result (e.g. onto a
    caller-provided channel); an exception escaping [f] is dropped and
    leaves its worker running. The daemon in [Wr_serve] is the intended
    client. Tasks already queued when [close] is called still run
    before the workers exit. *)
val submit : t -> (unit -> unit) -> unit

(** [close pool] shuts the workers down after they drain every queued
    task, and joins them; idempotent. *)
val close : t -> unit

(** [with_pool ~jobs f] — create, run [f], always close. *)
val with_pool : ?min_workers:int -> jobs:int -> (t -> 'a) -> 'a

(** [map_jobs ~jobs f xs] is a one-shot [with_pool] + [map]; [~jobs:1]
    costs nothing over [List.map]. *)
val map_jobs : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** The hardware's useful parallelism ([Domain.recommended_domain_count]):
    the worker cap in [create], and what [-j 0] means on the CLI. *)
val hardware_domains : unit -> int
