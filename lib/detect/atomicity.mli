(** Atomicity-violation checking — the "other concurrency analysis" the
    paper says its models support (footnote 2).

    Scripts are atomic operations, but web code routinely spreads one
    logical transaction over several operations — check a value in one
    timer callback, act on it in the next. The happens-before relation and
    the logical-access stream are exactly what is needed to find
    {e unserializable interleavings}: a pair of accesses [a1], [a2] to one
    location by operations [A -> B], with a third operation [C] accessing
    the location concurrently with both ([CHC(C,A)] and [CHC(C,B)]), such
    that no serial order of C against the A-B transaction explains what
    the accesses could observe. The classic four patterns (kinds of
    a1-c-a2):

    - [R-W-R] — B may see a different value than A checked;
    - [W-W-R] — B may read C's overwrite instead of A's write;
    - [R-W-W] — C's concurrent write can be silently lost;
    - [W-R-W] — C can observe A's intermediate state.

    The checker runs offline over a {!Trace.t}'s access stream, so every
    access (not just each location's last) participates. Reports are
    deduplicated per (location, pattern) and come out in order of each
    location's first access in the trace. *)

type pattern = R_w_r | W_w_r | R_w_w | W_r_w

val pattern_name : pattern -> string

type violation = {
  loc : Wr_mem.Location.t;
  pattern : pattern;
  first : Wr_mem.Access.t;  (** a1, by the transaction's first operation *)
  interleaved : Wr_mem.Access.t;  (** c, the concurrent access *)
  second : Wr_mem.Access.t;  (** a2, by the transaction's second operation *)
}

(** [check graph accesses] finds unserializable interleavings. Quadratic
    in each location's access count (fine for per-page traces); locations
    whose writes never conflict (collections, handler containers) are
    skipped, as are same-operation triples. *)
val check : Wr_hb.Graph.t -> Wr_mem.Access.t list -> violation list

(** [check_trace trace] is {!check} over a replayed trace. *)
val check_trace : Trace.t -> violation list

val pp_violation : Format.formatter -> violation -> unit
