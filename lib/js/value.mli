(** Runtime values and VM state for MiniJS.

    The value universe is ES5's: primitives plus mutable objects with
    prototype chains. Functions are objects with a [callable]; DOM objects
    are ordinary objects with a [host] hook that lets the browser intercept
    property access (that hook is where HTML-element and event-handler
    logical accesses are emitted, see [Wr_browser.Bindings]).

    The [vm] record carries everything the paper's instrumentation needs:
    the access sink, the identifier of the operation currently executing
    (set by the browser before each turn), and the cell-interning table
    that gives every (owner, property-name) pair a stable logical-location
    identity — including never-written properties, so a read miss can race
    with a later write (Fig. 3's pattern at the JS level). *)

type t =
  | Undefined
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Object of obj

and obj = {
  oid : int;  (** unique object id; property cells intern on (oid, name) *)
  class_name : string;  (** "Object", "Array", "Function", "Error", host kinds *)
  mutable proto : obj option;
  props : (string, t ref) Hashtbl.t;
  mutable call : callable option;
  mutable host : host option;
}

and callable =
  | Closure of closure
  | Builtin of string * (vm -> this:t -> t list -> t)

and closure = {
  params : string list;
  env : env;  (** the frame the function was created in *)
  func_name : string;  (** "" when anonymous *)
  code : code;
}

(** A function literal's compiled body, shared by every closure made from
    the literal. [Interp] installs a stub that compiles the body on the
    first call and replaces itself with the result. *)
and code = { mutable enter : env -> this:t -> t list -> t }

(** A function or catch frame. Bindings live in [slots] at indices the
    compiler resolved; [cells] caches each slot's logical location, built
    on the first access ({!unset_cell} until then). [parent] is the
    lexically enclosing frame; a top-level frame is its own parent, so a
    call links its frame without an option block. *)
and env = { slots : t array; cells : Wr_mem.Location.t array; this : t; parent : env }

(** The global scope stays a table: the browser installs [document],
    [window] and the timer functions into it by name, and [window.x]
    unifies with it. *)
and global_scope = { scope_id : int; vars : (string, t ref) Hashtbl.t }

and host = {
  host_id : int;  (** browser-side identity, e.g. a DOM node uid *)
  host_kind : string;  (** "node", "document", "window", "xhr", ... *)
  host_get : vm -> obj -> string -> t option;
      (** [Some v] intercepts the read; [None] falls through to plain
          property lookup *)
  host_set : vm -> obj -> string -> t -> bool;
      (** [true] when the write was fully handled by the host *)
}

and vm = {
  mutable sink : Wr_mem.Access.sink;
      (** the detector's record path ({!Wr_mem.Access.sink}); the
          interpreter passes each access's fields without building a
          record, so the arguments are borrowed and a sink that keeps an
          access builds its own {!Wr_mem.Access.t} *)
  mutable instrument : bool;
      (** when false, the interpreter skips access emission entirely — the
          "uninstrumented engine" baseline of the §6.3 overhead
          comparison *)
  mutable current_op : Wr_hb.Op.id;
  mutable context : string;  (** label of the executing operation *)
  mutable fuel : int;
  fuel_limit : int;
  rng : Wr_support.Rng.t;
  cell_ids : Wr_mem.Location.Cells.t;
  mutable next_id : int;
  mutable next_key : int;  (** the next dense location key *)
  global : global_scope;
  object_proto : obj;
  array_proto : obj;
  function_proto : obj;
  error_proto : obj;
  mutable global_this : t;  (** the window object once the browser binds it *)
  mutable now : unit -> float;  (** virtual clock hook ([Date.now]) *)
  mutable call_value : t -> this:t -> t list -> t;  (** tied by [Interp] *)
  console : string list ref;  (** [console.log] output, newest first *)
  mutable tm : Wr_telemetry.Telemetry.t;
      (** telemetry context; spans script evaluation when enabled *)
}

(** Raised by [throw] for JavaScript exceptions; the payload is the thrown
    value. The browser catches it at operation boundaries, mirroring how
    browsers swallow script crashes (§2.3). *)
exception Js_throw of t

(** Raised when an operation exceeds its step budget (e.g. an accidental
    infinite loop in a generated page). *)
exception Fuel_exhausted

(** [create_vm ?seed ?fuel ~sink ()] builds a VM with fresh prototypes and
    an empty global scope. [Interp.create] is the usual entry point. *)
val create_vm : ?seed:int -> ?fuel:int -> sink:Wr_mem.Access.sink -> unit -> vm

(** [fresh_id vm] mints an id unique across objects, scopes and cells. *)
val fresh_id : vm -> int

(** [fresh_key vm] mints the analysis's next dense location key
    ({!Wr_mem.Location.key}), from a counter apart from [fresh_id]'s. *)
val fresh_key : vm -> int

(** [cell_loc vm ~owner name] is the interned logical location of
    property or binding [name] of the object or global scope identified
    by [owner]; its cell id and key are minted on first use. Frame bindings keep
    theirs in [env.cells] instead. *)
val cell_loc : vm -> owner:int -> string -> Wr_mem.Location.t

(** [unset_cell] fills a fresh frame's [cells]: the slot has no location
    yet. Compared physically. *)
val unset_cell : Wr_mem.Location.t

(** [new_object vm ?proto ?class_name ()] allocates a plain object;
    [proto] defaults to [vm.object_proto]. *)
val new_object : vm -> ?proto:obj -> ?class_name:string -> unit -> obj

(** [new_closure vm closure] allocates a function object carrying
    [closure], with a fresh [prototype] property for [new]. *)
val new_closure : vm -> closure -> obj

(** [new_builtin vm name fn] allocates a builtin function object. *)
val new_builtin : vm -> string -> (vm -> this:t -> t list -> t) -> obj

(** [new_array vm elems] allocates an Array with the given elements and a
    correct [length]. *)
val new_array : vm -> t list -> obj

(** [array_elements obj] reads back an Array's dense elements. *)
val array_elements : obj -> t list

(** [set_prop_raw obj name v] writes a property without instrumentation —
    for engine-internal setup only (prototypes, builtin installation). *)
val set_prop_raw : obj -> string -> t -> unit

(** [get_prop_raw obj name] reads an own-or-inherited property without
    instrumentation. *)
val get_prop_raw : obj -> string -> t option

(** [throw v] raises {!Js_throw}. *)
val throw : t -> 'a

(** [make_error vm kind msg] builds an Error object ([kind] is e.g.
    "TypeError") with [name]/[message] properties. *)
val make_error : vm -> string -> string -> t

(** [throw_error vm kind msg] is [throw (make_error vm kind msg)]. *)
val throw_error : vm -> string -> string -> 'a

(** {2 Conversions (ES5 abstract operations, simplified)} *)

val to_boolean : t -> bool

(** [to_number v] follows ToNumber; objects yield NaN except via
    [to_primitive]. *)
val to_number : t -> float

(** [to_string vm v] follows ToString; objects dispatch to a [toString]
    property when callable, else ["\[object C\]"] / array join. *)
val to_string : vm -> t -> string

(** [to_primitive vm v] converts objects for [+]/comparison contexts. *)
val to_primitive : vm -> t -> t

val to_int32 : t -> int32

(** [to_uint32 v] is ES5 §9.6 ToUint32: [v] modulo 2{^32}, from 0 to
    2{^32} - 1. *)
val to_uint32 : t -> int

val strict_equals : t -> t -> bool

(** [loose_equals vm a b] implements [==] (simplified per DESIGN.md). *)
val loose_equals : vm -> t -> t -> bool

val type_of : t -> string

(** [is_callable v] holds for function objects. *)
val is_callable : t -> bool

(** [describe v] is a short debugging rendering (no user [toString]
    dispatch, never raises). *)
val describe : t -> string
