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

    {!Last_access.create_dedup} keeps a {!mark} in its own per-location
    record, whose last read and last write are the cached accesses, and
    {!Full_track.create_dedup} keeps a {!slot} there, so an access costs
    one index into their key-indexed {!Columns}. {!wrap} applies the same
    rule in front of an opaque detector, at the price of a second column
    of slots. *)

type stats = {
  seen : int;  (** raw accesses entering the detector *)
  forwarded : int;  (** accesses that reached the detector's state machine *)
}

(** [swallowed s] is how many raw accesses the rule kept from the
    detector's state machine. *)
val swallowed : stats -> int

(** The rule's per-location state as one immediate int: the epoch (the
    op of the location's latest access) and whether that op's read and
    write are cached. The cached accesses' flags and context are kept by
    the owner of the mark. *)
type mark = private int

(** [empty_mark] has no epoch and nothing cached. *)
val empty_mark : mark

(** [is_duplicate m kind op flags context ~cached_flags ~cached_context]
    — the access of [kind] by [op] with [flags] and [context] repeats the
    access of its kind cached under [m]; [cached_flags] and
    [cached_context] are that cached access's (its owner's record of the
    last forwarded access of [kind]). *)
val is_duplicate :
  mark ->
  Wr_mem.Access.kind ->
  Wr_hb.Op.id ->
  Wr_mem.Access.flag list ->
  string ->
  cached_flags:Wr_mem.Access.flag list ->
  cached_context:string ->
  bool

(** [after m kind op] is the mark once an access of [kind] by [op] is
    seen (forwarded or not). The owner then keeps a forwarded access's
    flags and context as the cached access of its kind. *)
val after : mark -> Wr_mem.Access.kind -> Wr_hb.Op.id -> mark

(** One location's dedup state with its own cache: a mark plus the
    operation's cached read and write, kept unboxed, so updating a slot
    allocates nothing. *)
type slot

(** [slot ()] is an empty slot. *)
val slot : unit -> slot

(** [duplicate s kind op flags context] — the access repeats the access
    of the same kind that [op] last forwarded through [s], so the
    detector may skip it. Updates [s]: call it once per access to [s]'s
    location, in order. *)
val duplicate :
  slot -> Wr_mem.Access.kind -> Wr_hb.Op.id -> Wr_mem.Access.flag list -> string -> bool

(** [wrap d] is [d] behind a column of slots, indexed by location key,
    plus a live stats reader. It forwards an access's fields as it
    received them and builds no record. The
    wrapper's [accesses_seen] reports {e raw} accesses (what the page did),
    keeping reports comparable with dedup off; [races] is untouched. *)
val wrap : Detector.t -> Detector.t * (unit -> stats)
