(** Shared instrumentation context.

    WebKit's instrumentation reports every access against the operation
    currently executing; here that ambient state is explicit. The browser
    owns one [t], keeps [op]/[context] current as the event loop switches
    operations, and hands the same [t] to the DOM, the event system and the
    JS VM so all accesses land in one stream with one id space.

    [cell_loc], [fresh_id] and [fresh_key] are wired to the JS VM's
    interning table and counters, so a DOM node's [parentNode] property
    and a JS read of the same property resolve to the same logical cell,
    and to one shared location value with one key. *)

type t = {
  mutable op : Wr_hb.Op.id;  (** the operation currently executing *)
  mutable context : string;  (** its human-readable label *)
  sink : Access.sink;
      (** the detector's record path ({!Access.sink}): arguments are
          borrowed, and a sink that keeps an access builds its own
          {!Access.t} *)
  cell_loc : owner:int -> string -> Location.t;
      (** the interned [Js_var] of property [name] of [owner] *)
  fresh_id : unit -> int;
  fresh_key : unit -> int;
      (** the analysis's next dense location key ({!Location.key}), from a
          counter of its own *)
}

(** [emit t loc kind] reports an unflagged access by the current
    operation, passing its fields to [sink] without building a record. *)
val emit : t -> Location.t -> Access.kind -> unit

(** [emit_flagged t flags loc kind] is [emit] with [flags]. The flags
    are a plain argument, not an optional one, so a flagged access
    allocates no [Some] either. *)
val emit_flagged : t -> Access.flag list -> Location.t -> Access.kind -> unit

(** [null ()] swallows accesses and mints ids and keys from private
    counters; for
    tests that exercise DOM structure without a detector. *)
val null : unit -> t
