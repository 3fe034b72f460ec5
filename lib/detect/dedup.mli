(** Per-operation access deduplication — the rule each detector applies
    in its own per-location slot.

    Race verdicts are operation-granular: the detectors compare the
    {e operations} behind two accesses, never the access count, so a loop
    that reads [a[i]] 500 times inside one [Script] operation feeds the
    detector 500 identical CHC-triggering lookups where one suffices. A
    {!slot} swallows an access when the {e same operation} already
    forwarded a same-shape access ({!Wr_mem.Access.same_shape}: same
    location, kind, flags, context) of the same kind to the same location.
    The slot flushes on operation switch, implemented as a per-location
    epoch: an interleaved operation (a nested dispatch segment) only
    invalidates the locations it actually touches, so returning to the
    outer operation keeps its still-valid entries.

    Two rules keep the detector's state machine bit-identical to a run
    without dedup:

    - a write is only a duplicate of the {e most recent} forwarded write
      with no intervening read of that location by the operation — an
      intervening read makes the next write [Checked_read_first]-flagged
      ({!Last_access}, {!Full_track}), so the slot's write entry is
      invalidated on every read;
    - an access whose flags or context differ from the cached one (say a
      later read that observed a miss) is forwarded, not swallowed.

    Under those rules a duplicate's detector transition is provably a
    no-op: the CHC check it would trigger compares the same pair of
    operations the first occurrence already compared, and the slot it
    would overwrite receives a same-shape record.

    {!Last_access.create_dedup} and {!Full_track.create_dedup} keep a
    slot in their own per-location record, so an access costs one
    location lookup. {!wrap} applies the same rule in front of an opaque
    detector, at the price of a second location table. *)

type stats = {
  seen : int;  (** raw accesses entering the detector *)
  forwarded : int;  (** accesses that reached the detector's state machine *)
}

(** [swallowed s] and [ratio s] summarize a run: [ratio] is raw accesses
    per forwarded access (1.0 = nothing deduplicated). *)
val swallowed : stats -> int

val ratio : stats -> float

(** One location's dedup state. *)
type slot

(** [slot ()] is an empty slot. *)
val slot : unit -> slot

(** [duplicate s a] — [a] repeats the access of the same kind that [a]'s
    operation last forwarded through [s], so the detector may skip it.
    Updates [s]: call it once per access to [s]'s location, in order. *)
val duplicate : slot -> Wr_mem.Access.t -> bool

(** [wrap d] is [d] behind a table of slots plus a live stats reader. The
    wrapper's [accesses_seen] reports {e raw} accesses (what the page did),
    keeping reports comparable with dedup off; [races] is untouched. *)
val wrap : Detector.t -> Detector.t * (unit -> stats)
