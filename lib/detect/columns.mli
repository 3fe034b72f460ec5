(** Per-location detector state, indexed by dense location key.

    {!Last_access}, {!Full_track} and {!Dedup.wrap} keep what they know of
    a location in arrays indexed by {!Wr_mem.Location.key}, grown as keys
    appear ({!Last_access} cuts its columns into fixed-size chunks and
    grows only the array of chunks). Finding a location's state is then
    an array index: no hashing. *)

(** [initial] is the starting length of every column. *)
val initial : int

(** [key loc] is [loc]'s key. Raises [Invalid_argument] when the
    location has none ({!Wr_mem.Location.no_key}). *)
val key : Wr_mem.Location.t -> int

(** [grow col fill k] is a copy of [col], at least twice as long and
    long enough to index [k], padded with [fill]. Callers grow a column
    only when [k] is past its end. *)
val grow : 'a array -> 'a -> int -> 'a array
