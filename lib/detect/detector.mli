(** The detector interface the instrumented browser feeds.

    The paper notes its framework "allows us to plug in any dynamic race
    detector" (§5.2); this record is that plug point. {!Last_access} is the
    paper's detector, {!Full_track} the ablation variant, [null] the
    uninstrumented baseline for overhead measurements. *)

type t = {
  name : string;
  record : Wr_mem.Access.t -> unit;  (** called on every instrumented access *)
  races : unit -> Race.t list;
      (** reported races so far, in discovery order; at most one per
          location per run (paper footnote 13) *)
  accesses_seen : unit -> int;
}

(** [null] discards every access and reports nothing — the "instrumentation
    disabled" baseline of the §6.3 performance comparison. *)
val null : t

(** [with_telemetry tm d] wraps [d] (debug-log events included) so each
    [record] call is counted and its cost accumulated under the
    ["detect"] phase; just the logging wrapper when [tm] is disabled. *)
val with_telemetry : Wr_telemetry.Telemetry.t -> t -> t
