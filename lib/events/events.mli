(** Event-handler registry and dispatch planning (paper §3.1, §4.3, App. A).

    Handlers are stored per (target uid, event name) in two slots, matching
    the logical-location model:

    - the {e inline} slot, fed by [on<event>] content attributes and
      [el.onload = f] property writes — logical location
      [(el, e, Attr)];
    - the {e listener list}, fed by [addEventListener] — each entry a
      distinct [(el, e, Listener uid)] location.

    Registration and removal emit the §4.3 write accesses here (including
    the container write that lets a later dispatch race with it, see
    DESIGN.md); the browser emits the dispatch-side reads when it executes
    a plan, because those reads belong to dispatch operations that only
    exist at dispatch time.

    Each (target, event) pair's container and inline-slot locations, and
    each listener's location, are built once, with their keys
    ({!Wr_mem.Location.key}), and shared by every access to them.

    The handler payload type is abstract ('h is a JS function value in the
    browser), so this module stays independent of the interpreter and
    directly testable. *)

type phase = Capture | At_target | Bubble

val phase_name : phase -> string

type 'h registration = {
  listener_uid : int;  (** identity for the [Listener] location *)
  handler : 'h;
  capture : bool;
  listener_loc : Wr_mem.Location.t;  (** the interned [Listener] location *)
}

type 'h t

val create : ?tm:Wr_telemetry.Telemetry.t -> Wr_mem.Instr.t -> 'h t

(** [set_inline t ~target ~event h] installs the inline handler (writes the
    [(el,e,Attr)] and container locations). [h = None] clears it. *)
val set_inline : 'h t -> target:int -> event:string -> 'h option -> unit

(** [inline t ~target ~event] reads back the inline handler {e without}
    instrumentation (the instrumented read happens at dispatch). *)
val inline : 'h t -> target:int -> event:string -> 'h option

(** [add_listener t ~target ~event ~capture h] appends a listener,
    returning its uid; emits the listener and container writes. *)
val add_listener : 'h t -> target:int -> event:string -> capture:bool -> 'h -> int

(** [remove_listener t ~target ~event ~uid] removes by uid; emits writes
    when something was removed. *)
val remove_listener : 'h t -> target:int -> event:string -> uid:int -> unit

(** [listeners t ~target ~event] lists current registrations in
    registration order, uninstrumented. *)
val listeners : 'h t -> target:int -> event:string -> 'h registration list

(** One handler invocation of a dispatch plan. *)
type 'h step = {
  phase : phase;
  current_target : int;  (** the node whose handler runs *)
  loc : Wr_mem.Location.t;  (** the Attr or Listener location of the §4.3 read *)
  callback : 'h;
}

(** [plan t ~path ~event] computes the capture → target → bubble handler
    sequence for a dispatch whose propagation path is [path] (root first,
    target last). Bubbling is skipped when [bubbles] is false (load events
    do not bubble). Capture listeners run in the capture phase; inline
    handlers and non-capture listeners run at target/bubble. *)
val plan : 'h t -> path:int list -> event:string -> bubbles:bool -> 'h step list

(** [record_dispatch t ~target ~event] increments and returns the dispatch
    index (0-based) for [dispi] bookkeeping and the single-dispatch
    filter. *)
val record_dispatch : 'h t -> target:int -> event:string -> int

(** [dispatch_count t ~target ~event] is how many dispatches have been
    recorded. *)
val dispatch_count : 'h t -> target:int -> event:string -> int

(** [container_location t ~target ~event] is the interned §4.3 logical
    location of a target's handler container; exported for the browser's
    dispatch-side reads. *)
val container_location : 'h t -> target:int -> event:string -> Wr_mem.Location.t

(** [targets_with_handlers t] enumerates (target, event) pairs that
    currently have an inline handler or at least one listener — the
    automatic-exploration work list (§5.2.2). Order is deterministic
    (sorted by target uid, then event name). *)
val targets_with_handlers : 'h t -> (int * string) list

(** [non_bubbling_events] — events dispatched without a bubble phase. *)
val non_bubbling_events : string list

(** [exploration_events] — the §5.2.2 automatic-exploration event set. *)
val exploration_events : string list
