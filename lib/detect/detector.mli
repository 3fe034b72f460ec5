(** The detector interface the instrumented browser feeds.

    The paper notes its framework "allows us to plug in any dynamic race
    detector" (§5.2); this record is that plug point. {!Last_access} is the
    paper's detector, {!Full_track} the ablation variant, [null] the
    uninstrumented baseline for overhead measurements. *)

type t = {
  name : string;
  record : Wr_mem.Access.sink;
      (** called on every instrumented access, with the access's fields
          ([record loc kind op flags context]) rather than a record. The
          arguments are borrowed: a detector that keeps an access (a race
          report, a history, a trace) builds its own {!Wr_mem.Access.t}
          from them, and one that keeps nothing allocates nothing. *)
  races : unit -> Race.t list;
      (** reported races so far, in discovery order; at most one per
          location per run (paper footnote 13) *)
  accesses_seen : unit -> int;
}

(** [record_access d a] feeds a saved access to [d] (trace replay,
    hand-built streams). *)
val record_access : t -> Wr_mem.Access.t -> unit

(** [null] discards every access and reports nothing — the "instrumentation
    disabled" baseline of the §6.3 performance comparison. *)
val null : t

(** [with_telemetry tm d] wraps [d] so the cost of each [record] call
    accumulates under the ["detect"] phase when [tm] is enabled. When
    debug logging is on at this call, [d] also emits [detect.batch]
    (every 1024 accesses) and [detect.races] debug events. With neither,
    [d] comes back as it is. *)
val with_telemetry : Wr_telemetry.Telemetry.t -> t -> t
