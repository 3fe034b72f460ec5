(** Shared instrumentation context.

    WebKit's instrumentation reports every access against the operation
    currently executing; here that ambient state is explicit. The browser
    owns one [t], keeps [op]/[context] current as the event loop switches
    operations, and hands the same [t] to the DOM, the event system and the
    JS VM so all accesses land in one stream with one id space.

    [cell_loc] and [fresh_id] are wired to the JS VM's interning table, so
    a DOM node's [parentNode] property and a JS read of the same property
    resolve to the same logical cell, and to one shared location value. *)

type t = {
  mutable op : Wr_hb.Op.id;  (** the operation currently executing *)
  mutable context : string;  (** its human-readable label *)
  sink : Access.t -> unit;
  cell_loc : owner:int -> string -> Location.t;
      (** the interned [Js_var] of property [name] of [owner] *)
  fresh_id : unit -> int;
}

(** [emit t ?flags loc kind] reports an access by the current operation. *)
val emit : t -> ?flags:Access.flag list -> Location.t -> Access.kind -> unit

(** [null ()] swallows accesses and mints ids from a private counter; for
    tests that exercise DOM structure without a detector. *)
val null : unit -> t
