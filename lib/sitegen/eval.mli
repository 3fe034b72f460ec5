(** Evaluation harness: run WebRacer over the synthetic corpus and
    regenerate the paper's Tables 1 and 2.

    Ground truth comes from the profiles; the harness reports both the
    detected counts (what WebRacer actually found) and the planted counts,
    and flags any site where they disagree — the fidelity check replacing
    the paper's manual inspection. *)

type outcome = {
  profile : Profile.t;
  raw : Profile.counts;  (** detected, unfiltered *)
  filtered : Profile.counts;  (** detected, after the §5.3 filters *)
  expected_raw : Profile.counts;
  expected_filtered : Profile.counts;
  harmful : Profile.counts;  (** ground truth for the filtered races *)
  ops : int;
  accesses : int;
  detector_records : int;  (** accesses reaching the detector after dedup *)
  crashes : int;
  wall_clock_s : float;
}

(** [run_site ?seed ?dedup ?telemetry profile] generates the site and
    analyzes it with exploration on ([dedup] defaults to on, matching
    production). [telemetry] may be shared across sites and domains —
    the context is domain-safe. *)
val run_site :
  ?seed:int -> ?dedup:bool -> ?telemetry:Wr_telemetry.Telemetry.t ->
  Profile.t -> outcome

(** [run_corpus ?seed ?limit ?jobs ?dedup ()] runs the whole corpus (or its
    first [limit] sites), in profile order. [jobs > 1] spreads sites over
    that many domains; per-site seeds are position-fixed, so the outcomes
    are identical to the sequential run — only the wall clock changes. *)
val run_corpus :
  ?seed:int -> ?limit:int -> ?jobs:int -> ?dedup:bool -> unit -> outcome list

(** [run_corpus_stats] is {!run_corpus} plus the fleet profile of the
    pool that ran it ({!Wr_support.Pool.stats}: per-domain queue-wait /
    run / idle / GC figures) — the [corpus --profile] breakdown. An
    optional shared [telemetry] context records spans and counters from
    every domain. *)
val run_corpus_stats :
  ?seed:int -> ?limit:int -> ?jobs:int -> ?dedup:bool ->
  ?telemetry:Wr_telemetry.Telemetry.t -> unit ->
  outcome list * Wr_support.Pool.stats

(** [fidelity outcome] — detected filtered counts match the planted
    ground truth exactly. *)
val fidelity : outcome -> bool

(** [render_table1 outcomes] formats the Table 1 analogue: mean, median
    and max of detected raw races per type across sites. *)
val render_table1 : outcome list -> string

(** [render_table2 outcomes] formats the Table 2 analogue: per-site
    filtered counts with harmful counts in parentheses; sites with no
    filtered races are elided, totals appended, mismatch-flagged rows
    marked with [!]. *)
val render_table2 : outcome list -> string

(** {2 Static-prediction validation} (DESIGN.md §8)

    Score the ahead-of-time predictor ([Wr_static]) against the dynamic
    detector over the corpus: every dynamically detected raw race should
    be statically predicted (recall), and the prediction sets should not
    drown in unconfirmed noise (precision). *)

(** Confirmed predictions classified by the strongest dynamic race each
    covers: harmful (kept and heuristically harmful), benign (kept),
    or filtered-only (covers only §5.3-suppressed races). *)
type predict_breakdown = {
  conf_harmful : int;
  conf_benign : int;
  conf_filtered : int;
}

type predict_outcome = {
  p_profile : Profile.t;
  comparison : Wr_static.Compare.comparison;
  breakdown : predict_breakdown;
}

(** [predict_corpus ?seed ?limit ?jobs ()] — predicts every corpus
    site statically and scores it against a dynamic run with the same
    seed, then does the same for every page of the adversarial pack
    ([Adversarial.pack], appended whatever [limit] is); position-fixed
    seeds make the outcome independent of [jobs]. *)
val predict_corpus :
  ?seed:int -> ?limit:int -> ?jobs:int -> unit -> predict_outcome list

(** [render_predict outcomes] — per-site rows for imperfect sites plus
    aggregate recall/precision and the per-class confirmation
    breakdown. *)
val render_predict : predict_outcome list -> string

(** {2 Prediction-guided triage over the corpus}

    The [webracer triage --corpus] path and the CI soundness gate: run
    {!Wr_static.Triage.run} over every site plus the adversarial pack
    and aggregate the classifications. *)

type triage_outcome = {
  t_name : string;
  t_page : string;
  t_resources : (string * string) list;  (** kept for blind comparison *)
  t_report : Wr_static.Triage.t;
}

(** [triage_corpus ?seed ?limit ?jobs ?budget ()] — triages every
    corpus site then the adversarial pack (same layout and position-fixed
    seeds as {!predict_corpus}); the reports are independent of
    [jobs]. *)
val triage_corpus :
  ?seed:int -> ?limit:int -> ?jobs:int -> ?budget:int -> unit ->
  triage_outcome list

(** [triage_sound outcomes] — no site surfaced a dynamic race outside
    its prediction set (the CI-gate condition). *)
val triage_sound : triage_outcome list -> bool

(** [render_triage outcomes] — rows for sites where the guided search
    refuted, exhausted or missed something, plus aggregate counts. *)
val render_triage : triage_outcome list -> string
