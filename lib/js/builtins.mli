(** The MiniJS standard library.

    Installs the globals real pages lean on — [Math], [Array], [Object],
    [String]/[Number]/[Boolean], [Error] family, [Date] (backed by the
    simulator's virtual clock), [console], [parseInt]/[parseFloat]/[isNaN]
    — and populates [Object.prototype], [Array.prototype] and
    [Function.prototype] ([call]/[apply]). [Math.random] draws from the
    VM's seeded generator so runs stay reproducible. *)

(** [install vm] defines the globals in [vm]'s global scope. Idempotent per
    VM only in the sense that re-installation overwrites; call once. *)
val install : Value.vm -> unit

(** [string_member vm s name] resolves primitive-string members
    (["s".length], methods); [None] if [name] is not a string member. *)
val string_member : Value.vm -> string -> string -> Value.t option

(** [number_member vm n name] resolves primitive-number members
    ([toFixed], [toString]). *)
val number_member : Value.vm -> float -> string -> Value.t option

(** [make_regexp vm ~pattern ~flags] builds a RegExp object ([test]/[exec]
    methods, [source]/[flags]/[global]/[lastIndex] properties); raises a
    SyntaxError ([Value.Js_throw]) on malformed patterns. Used for regex
    literals and the [RegExp] constructor. *)
val make_regexp : Value.vm -> pattern:string -> flags:string -> Value.t

(** [regex_cache_stats ()] is [(hits, misses)] for the per-domain
    compiled-regex caches, summed over domains for the process lifetime.
    The fleet profile reports them next to the pool's figures. *)
val regex_cache_stats : unit -> int * int
