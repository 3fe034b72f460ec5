(** Full-history race detector — the ablation closing the §5.1 gap.

    The paper's single-slot detector can miss races: with accesses
    [1: read e], [2: write e], [3: read e], [1 -> 2] and schedule
    [3 · 1 · 2], the write at [2] only sees the most recent read [1] and
    never compares against [3]. This detector keeps {e all} prior accesses
    per location (until the location's one allowed report fires, after
    which its history is cleared), so every unordered conflicting pair
    is found regardless of schedule. Histories live in {!Columns},
    indexed by the location's dense key. The benchmark suite measures what the
    extra recall costs in time and space (experiment Abl-2). *)

val create : Wr_hb.Graph.t -> Detector.t

(** [create_dedup graph] is [create graph] with {!Dedup}'s per-operation
    rule applied in each location's own history record, so an access
    costs one index into the histories (plus the reported-location
    check). Races
    and stats equal those of [Dedup.wrap (create graph)]: a reported
    location's history is cleared, but its dedup slot stays. *)
val create_dedup : Wr_hb.Graph.t -> Detector.t * (unit -> Dedup.stats)
