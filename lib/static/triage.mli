(** Static → dynamic triage: prediction-guided schedule exploration
    (DESIGN.md §8).

    For each static prediction, derive the scheduling directives (which
    delay channels to speed up or slow down) that could realize it —
    from the units' HB ancestors in the MHP model — and run only those directed
    schedules. Every prediction ends up {e confirmed} (a schedule
    realized it), {e refuted} (with a certificate over the explored
    directive space), or {e unconfirmed} (budget exhausted). Any
    dynamic race observed along the way that no prediction covers is a
    soundness violation and is reported as [unpredicted]. *)

(** A delay channel the guided search can perturb. *)
type channel = C_parse | C_timer | C_net | C_xhr | C_user

(** [channels m uid] — the channels that move when unit [uid] runs: its
    own dispatch channel plus those of all its HB ancestors. *)
val channels : Model.t -> int -> channel list

(** One directed schedule: per-channel speed overrides, canonically
    ordered. *)
type directive = (channel * Wr_scheduler.Event_loop.speed) list

val directive_label : directive -> string

val bias_of : directive -> Wr_scheduler.Event_loop.bias

(** Why a prediction is unrealizable under the explored schedules. *)
type certificate =
  | Side_never_observed of { side : string; sloc : string }
      (** one side's abstract location matched no trace access in any
          explored schedule (dead-branch registration) *)
  | Disjoint_cells of { first_cells : string list; second_cells : string list }
      (** both sides execute, but the concrete cells they touch never
          intersect in any schedule (widened computed member names) *)
  | Always_ordered of { common_cells : string list }
      (** a common cell exists, but the detector found every access
          pair ordered in every explored schedule *)

type classification =
  | Confirmed of { schedule : string }
  | Refuted of certificate
  | Unconfirmed of { reason : string }

type item = {
  prediction : Predict.prediction;
  classification : classification;
  directives : string list;  (** directive labels derived for it *)
}

type t = {
  result : Predict.result;
  items : item list;
  schedules_run : int;
  schedules_to_confirm : int;
      (** index of the schedule producing the last new confirmation
          (1 = baseline); 0 when nothing confirmed *)
  budget : int;
  unpredicted : (Wr_detect.Race.t * string) list;
      (** soundness violations: raw dynamic races no prediction covers,
          with the schedule label that surfaced them *)
}

val default_budget : int

(** [run ~page ~resources ()] predicts, runs the baseline schedule plus
    directed schedules (at most [budget] total, default
    {!default_budget}), and classifies every prediction. The report is
    deterministic in [seed] and independent of [jobs]. *)
val run :
  ?tm:Wr_telemetry.Telemetry.t ->
  ?seed:int ->
  ?jobs:int ->
  ?budget:int ->
  page:string ->
  resources:(string * string) list ->
  unit ->
  t

val count : [ `Confirmed | `Refuted | `Unconfirmed ] -> t -> int

(** [sound t] — no unpredicted dynamic race was observed. *)
val sound : t -> bool

type blind = { blind_schedules : int; blind_matched : bool }

(** [blind_equivalent ~page ~resources t] — how many schedules blind
    enumeration (baseline + seed sweep at 2 ms/element, the
    [Replay.explore_schedules] recipe) needs to confirm everything the
    guided search confirmed; capped at [cap] (default 64) with
    [blind_matched = false] when the cap is hit first. The Perf-8
    guided-vs-blind comparison. *)
val blind_equivalent :
  ?jobs:int ->
  ?cap:int ->
  ?seed:int ->
  page:string ->
  resources:(string * string) list ->
  t ->
  blind

(** [to_json t] — the schema-v2-stamped triage report, stable field
    order. *)
val to_json : t -> Wr_support.Json.t

(** [render t] — the human-readable classification listing. *)
val render : t -> string
