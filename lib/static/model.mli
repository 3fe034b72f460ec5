(** Static page model: code units + may-happen-in-parallel (DESIGN.md §8).

    Builds, from the parsed HTML alone, the set of code units a page can
    run (parser steps, scripts, timers, XHR handlers, event handlers,
    dispatch anchors, user input, DOMContentLoaded, load) and a
    happens-before edge set mirroring the dynamic rules in [Wr_hb] /
    [Wr_browser]. The units and edges are loaded into a {!Wr_hb.Graph}
    (op id = uid), so reachability runs on the same chain vector clocks
    as the dynamic detector; MHP is its complement. *)

type unit_kind =
  | U_parse of { node : int; tag : string; elem_id : string option }
  | U_script of [ `Sync | `Async | `Defer ]
  | U_timer of { interval : bool; delay : float option }
  | U_xhr
  | U_handler of { target : Effects.target; event : string }
  | U_dispatch of { target : Effects.target; event : string }
  | U_user of { node : int }
  | U_dcl
  | U_load

type unit_ = {
  uid : int;
  kind : unit_kind;
  label : string;
  doc : int;
  mutable preds : int list;  (** direct happens-before predecessors *)
  mutable effs : Effects.eff list;
}

val kind_name : unit_kind -> string

type t = {
  units : unit_ array;  (** indexed by [uid]; topologically ordered *)
  docs : int;  (** document count: main page + parsed iframes *)
  duplicate_ids : (int * string * int) list;
      (** (doc, id, occurrences) for ids appearing more than once *)
  missing_handler_ids : (int * string * string * string) list;
      (** (doc, id, event, registering unit label): handler registered on
          an id absent from the static DOM *)
  hb : Wr_hb.Graph.t;  (** one op per unit, op id = uid, edges = [preds] *)
}

(** [build ~page ~resources ()] parses [page] (iframe/script/img sources
    resolved against the [resources] association list, URL -> body) and
    constructs the unit graph. Never raises on malformed input: unparsable
    scripts contribute no unit, failing fetches none either. *)
val build :
  ?tm:Wr_telemetry.Telemetry.t ->
  page:string ->
  resources:(string * string) list ->
  unit ->
  t

val happens_before : t -> int -> int -> bool

(** [mhp t a b] — neither unit reaches the other. *)
val mhp : t -> int -> int -> bool

(** [mhp_pairs t] counts unordered MHP unit pairs, in time proportional
    to their number (see {!Wr_hb.Graph.iter_chc_pairs}). *)
val mhp_pairs : t -> int
