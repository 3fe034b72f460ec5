(** The browser simulator — the WebKit substitute WebRacer instruments.

    One [t] runs one page (plus nested iframes) on a virtual-time event
    loop, executing MiniJS through the instrumented interpreter and
    building the happens-before graph online as rules 1-17 (§3.3) fire:

    - progressive HTML parsing, one [parse(E)] operation per static
      element, chained in syntactic order (rule 1a);
    - script scheduling with real semantics: inline scripts run during
      parsing (1b), external synchronous scripts block the parser until
      fetched (1c), [async] scripts run whenever their fetch lands, [defer]
      scripts run in order before [DOMContentLoaded] (rules 4-5),
      script-inserted external scripts run on arrival and script-inserted
      inline scripts run inside the inserting operation (§3.3 footnote);
    - iframes load asynchronously with rules 6-7;
    - event dispatch with capture/target/bubble, per-handler operations,
      rules 8-9, the Appendix A phasing edges, and operation splitting
      around inline (programmatic) dispatch;
    - [DOMContentLoaded] and window [load] per rules 11-15;
    - timers per rules 16-17, with the [clearTimeout]/[clearInterval]
      conflict extension described in DESIGN.md;
    - XHR with rule 10.

    Uncaught script exceptions are swallowed and logged, as browsers do
    (§2.3). All nondeterminism comes from the seeded network model, so any
    run is reproducible from its config. *)

type t

(** A script crash the browser hid from the "user" (§2.3). *)
type crash = { op : Wr_hb.Op.id; message : string; context : string }

(** [create config] builds the browser stack: event loop, network,
    detector, VM, empty main window. *)
val create : Config.t -> t

(** [start t] begins loading the main page (queues the first parse task).
    Call {!run} to make progress. *)
val start : t -> unit

(** [run t] drains the event loop up to the config's time limit. Returns
    the number of tasks executed. Safe to call repeatedly (e.g. after
    scheduling exploration events). *)
val run : t -> int

(** {2 Results} *)

val graph : t -> Wr_hb.Graph.t

val detector : t -> Wr_detect.Detector.t

(** [trace t] snapshots the recorded execution trace; [None] unless the
    config enabled [trace]. *)
val trace : t -> Wr_detect.Trace.t option

val crashes : t -> crash list

val console : t -> string list
(** [console t] is the page's console output, oldest first. *)

val virtual_now : t -> float

(** [run_info t] packages dispatch counts for the §5.3 filters. *)
val run_info : t -> Wr_detect.Filters.run_info

(** {2 User simulation (used by automatic exploration, §5.2.2)} *)

(** [explorable_handler_targets t] lists (node uid, event) pairs with
    registered handlers for the exploration event set. *)
val explorable_handler_targets : t -> (int * string) list

(** [text_input_uids t] lists attached text-entry elements across all
    windows. *)
val text_input_uids : t -> int list

(** [javascript_link_uids t] lists attached anchors whose [href] uses the
    [javascript:] protocol. *)
val javascript_link_uids : t -> int list

(** [schedule_user_event t ~target ~event] queues a simulated user
    dispatch. *)
val schedule_user_event : t -> target:int -> event:string -> unit

(** [schedule_user_typing t ~target ~text] queues a simulated typing
    action: a user operation writes the field's [value] (flagged
    [User_input]) and dispatches [input]. *)
val schedule_user_typing : t -> target:int -> text:string -> unit

(** [schedule_user_click t ~target] queues a click dispatch, including the
    default action for [javascript:] links. *)
val schedule_user_click : t -> target:int -> unit

(** [accesses_seen t] is the number of instrumented accesses so far (raw:
    the dedup front-end does not change this count). *)
val accesses_seen : t -> int

(** [dedup_stats t] — raw vs forwarded access counts of the
    [Wr_detect.Dedup] front-end; [None] when [Config.dedup] is off or no
    detector is attached. *)
val dedup_stats : t -> Wr_detect.Dedup.stats option
