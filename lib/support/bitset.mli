(** Growable dense bitsets over non-negative integers.

    Sets of operation ids: the visited set of [Wr_hb.Graph]'s DFS
    happens-before query, the node filter of [Wr_hb.Graph.to_dot_subgraph],
    and the frontier sets of [Wr_explain]. *)

type t

(** [create n] is an empty set able to hold members [< n] without growing. *)
val create : int -> t

(** [mem t i] tests membership; [i] beyond the current capacity is absent. *)
val mem : t -> int -> bool

(** [add t i] inserts [i], growing as needed. Raises [Invalid_argument] on a
    negative index. *)
val add : t -> int -> unit

(** [remove t i] deletes [i] if present. *)
val remove : t -> int -> unit

(** [union_into ~into src] adds every member of [src] to [into]. *)
val union_into : into:t -> t -> unit

(** [cardinal t] counts members. *)
val cardinal : t -> int

(** [iter f t] applies [f] to each member in increasing order. *)
val iter : (int -> unit) -> t -> unit
