(** Post-processing report filters (paper §5.3).

    Running on production sites produces many benign reports; the paper
    found two filters effective for surfacing harmful races:

    - {!form_field} suppresses variable races not involving an HTML form
      field's value, and further drops form races whose writing operation
      read the field first (such reads check that the user has not modified
      the field, making the race harmless);
    - {!single_dispatch} retains only event-dispatch races on events that
      dispatch at most once in the run (e.g. [load]) — missing a handler
      for a repeating event like [click] merely loses one occurrence.

    HTML and function races pass through both filters untouched. *)

(** Facts about the finished run that filters consult. *)
type run_info = {
  dispatch_count : target:int -> event:string -> int;
      (** how many times [event] was dispatched on node [target] *)
}

val form_field : Race.t list -> Race.t list

val single_dispatch : run_info -> Race.t list -> Race.t list

(** Filter names used in {!outcome.counts}, suppression attributions,
    [filter.suppress] log events and the JSON report. *)
val form_field_name : string

val single_dispatch_name : string

(** The result of running the filter chain with attribution: which filter
    suppressed which race (invisible in the plain filtered list), plus a
    per-filter suppression tally in chain order. *)
type outcome = {
  kept : Race.t list;  (** races surviving every filter, input order *)
  suppressed : (string * Race.t) list;
      (** (filter name, race) for each suppression, in chain order *)
  counts : (string * int) list;  (** suppression tally per filter *)
}

(** [apply info races] runs the §6.3 filter chain, recording which filter
    suppressed which race and emitting one [filter.suppress] log event
    per suppression ({!Wr_support.Log}). *)
val apply : run_info -> Race.t list -> outcome
