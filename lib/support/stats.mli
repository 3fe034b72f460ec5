(** Summary statistics over integer samples (Table 1 reports mean, median
    and max per race type across sites). *)

(** [mean xs] is the arithmetic mean; [0.] on an empty list. *)
val mean : int list -> float

(** [median xs] follows the paper's convention of averaging the two middle
    elements for even-length samples (Table 1 reports 5.5); [0.] on empty. *)
val median : int list -> float

(** [max xs] is the largest sample; [0] on empty. *)
val max : int list -> int

(** [sum xs] totals the samples. *)
val sum : int list -> int

(** {1 Float samples} *)

(** [fpercentile xs p] is the [p]-th percentile ([p] in [0..100], clamped)
    with linear interpolation between closest ranks; [0.] on empty.
    [fpercentile xs 50.] is the median. *)
val fpercentile : float list -> float -> float

(** {1 HDR-style histograms}

    Fixed-memory log-bucketed histograms for latency recording on hot
    paths: each power-of-two range is split into 32 linear sub-buckets
    (~1.6% relative error on interior percentiles), with exact min, max
    and sum kept alongside. Unlike [fpercentile], [add] is O(1) with no
    allocation, and histograms recorded independently (one per domain,
    one per time window) [merge] losslessly — the merged
    percentiles equal those of a histogram fed the union of samples. *)
module Histo : sig
  type t

  val create : unit -> t

  (** [add t v] records one sample. Non-positive and NaN samples land in
      a dedicated underflow bucket and count toward [count] and rank. *)
  val add : t -> float -> unit

  (** [merge a b] is a fresh histogram holding both inputs' samples;
      neither argument is mutated. *)
  val merge : t -> t -> t

  (** [merge_into ~into t] folds [t]'s samples into [into]. *)
  val merge_into : into:t -> t -> unit

  val count : t -> int
  val sum : t -> float

  (** Exact extremes; [0.] when empty. *)
  val minimum : t -> float

  val maximum : t -> float
  val mean : t -> float

  (** [percentile t p] ([p] in [0..100], clamped) is the bucket-midpoint
      value at the smallest rank covering [p]% of samples, clamped to the
      exact [minimum]/[maximum]; [0.] when empty. *)
  val percentile : t -> float -> float

  (** [summary_json t] is [{"count", "mean", "p50", "p95", "p99",
      "p999", "max"}]. *)
  val summary_json : t -> Json.t
end
