(** The paper's race detector (§5.1).

    For every logical location it keeps exactly two slots — the last read
    and the last write — so auxiliary state is constant per location:

    - on a read [A]: report if [CHC(LastWrite[e], op(A))], then
      [LastRead[e] := A];
    - on a write [A]: report if [CHC(LastWrite[e], op(A))] or
      [CHC(LastRead[e], op(A))], then [LastWrite[e] := A].

    [CHC] is {!Wr_hb.Graph.chc} lifted over the bottom value (empty slot →
    no race). The slots live in columns indexed by the location's dense
    key ({!Wr_mem.Location.key}, see {!Columns}): a slot keeps its
    access's operation,
    flags and context unboxed, and the earlier access of a race is rebuilt
    from them only when the race is reported, so recording an access
    hashes nothing and allocates nothing, whether or not its location was
    seen before. The single-slot design trades completeness for space: the
    §5.1 limitation example (schedule [3·1·2] with [1 -> 2]) is missed;
    {!Full_track} closes that gap at higher cost.

    Two refinements shared with {!Full_track}:
    - write-write pairs are only considered when
      {!Wr_mem.Location.conflict_relevant} allows (handler containers and
      collections admit concurrent writes by design);
    - a write by an operation that itself produced the current [LastRead]
      is annotated [Checked_read_first] for the §5.3 form-filter
      refinement. *)

(** [create graph] returns a fresh detector wired to [graph]'s
    happens-before relation. *)
val create : Wr_hb.Graph.t -> Detector.t

(** [create_dedup graph] is [create graph] with {!Dedup}'s per-operation
    rule applied in each location's own slot pair, so an access costs one
    index into the columns. Races and stats equal those of
    [Dedup.wrap (create graph)]. *)
val create_dedup : Wr_hb.Graph.t -> Detector.t * (unit -> Dedup.stats)
