(** The version of every machine-readable document WebRacer emits.

    One number covers the report JSON ([Webracer.report_to_json]), the
    witness/explain JSON ([Wr_explain.to_json]) and the [webracer serve]
    wire protocol ([Wr_serve]); they evolve together, and consumers can
    dispatch on a single ["schema_version"] field wherever it appears.
    Bump on any breaking change to field names, shapes or semantics —
    additive fields do not bump it. The full schema is documented in
    DESIGN.md ("Report schema").

    The serve wire protocol negotiates per request: a request declaring
    {!version} (or nothing) gets a byte-identical v1 response; one
    declaring {!v2} gets the v2 envelope (shard id, HTTP-parity error
    objects). The HTTP surface is v2-native. DESIGN.md §7 records the
    deprecation path. *)

(** The default wire generation (1): what untagged requests speak. *)
val version : int

(** The v2 wire generation: v1 plus a ["shard"] field (always [0]: the
    daemon has one event loop) and ["http_status"] inside error
    objects. *)
val v2 : int

(** Every generation this build speaks, oldest first. *)
val supported : int list

val is_supported : int -> bool

(** ["schema_version"] — the canonical field name. *)
val field : string

(** [tag] is [(field, Int version)], ready to cons onto an [Obj]. *)
val tag : string * Json.t

(** [tag_of v] is [(field, Int v)] for an explicitly negotiated
    generation. *)
val tag_of : int -> string * Json.t

(** ["1 and 2"] — for error messages naming what this build speaks. *)
val supported_names : unit -> string
