(** Content hashing for cache keys, and an integer mixer for hash tables.

    The content hashes are a thin wrapper over the stdlib [Digest] (MD5)
    — not cryptographic, but stable across runs and processes, which is
    what a result cache keyed by page content needs. *)

(** [hex s] is the 32-character lowercase hex digest of [s]. *)
val hex : string -> string

(** [of_parts parts] hashes a list of strings unambiguously: each part
    is length-prefixed before hashing, so [["ab"; "c"]] and
    [["a"; "bc"]] digest differently (plain concatenation would not). *)
val of_parts : string list -> string

(** [mix h] scrambles an int so that every input bit reaches the low
    bits, which [Hashtbl.Make] indexes by; a bare multiply leaves the low
    bits of the product depending only on the low bits of [h]. The result
    is non-negative. Hash functions for int-keyed tables finish with it
    instead of calling the runtime's polymorphic [Hashtbl.hash]. *)
val mix : int -> int
