(** The daemon's LRU result cache.

    Keyed by a content hash of the canonical analyze params — page,
    resources and every config knob that can change the report — so two
    requests share an entry iff they would run the identical analysis.
    Values are the full report documents ([Webracer.report_to_json]),
    held encoded: the worker that ran the analysis serialised it once,
    and a hit splices those bytes into the response envelope
    ([Json.Raw]) without re-encoding. A hit therefore replays the
    original run's JSON verbatim, including its [wall_clock_s]
    (byte-identical output matters more than a fresh-looking timer),
    and an entry costs its encoded size rather than a JSON tree several
    times larger. Analyze results only: explain and replay are
    rare, and their documents dominate the memory a slot is worth.

    The cache keeps no tallies: the daemon counts its hits and misses
    in its telemetry context ([serve.cache_hit], [serve.cache_miss]),
    beside every other served number.

    Not thread-safe: the daemon's event loop is its only user. *)

type t

(** [create ~cap] holds at most [cap] entries; [cap <= 0] disables
    caching entirely. *)
val create : cap:int -> t

(** [key p] — 32 hex chars over the canonical params JSON. *)
val key : Request.analyze_params -> string

(** [find t k] is the stored bytes, and marks [k] most recently used. *)
val find : t -> string -> string option

(** [store t k bytes] keeps the encoded report [bytes]. *)
val store : t -> string -> string -> unit
val length : t -> int
val cap : t -> int
