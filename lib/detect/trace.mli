(** Execution traces: record once, analyze offline, any number of times.

    The paper's instrumentation "communicates events directly to the race
    detector, rather than generating a separate event trace" (§5.2.1).
    This module provides the alternative it implies: a serializable record
    of one execution — operations, happens-before edges, and the full
    logical-access stream — that offline analyses replay without re-running
    the browser. Detector ablations, filter experiments, and the atomicity
    checker all consume traces.

    Operation kinds are preserved as their display names; a replayed graph
    answers the same reachability queries as the original (ids, edges and
    access order are exact). *)

type op_record = { op_id : Wr_hb.Op.id; kind : string; label : string }

type t = {
  ops : op_record list;  (** in id order *)
  edges : (Wr_hb.Op.id * Wr_hb.Op.id) list;
  accesses : Wr_mem.Access.t list;  (** in observation order *)
}

(** [capture graph ~accesses] snapshots a finished run. *)
val capture : Wr_hb.Graph.t -> accesses:Wr_mem.Access.t list -> t

(** [recorder inner] wraps a detector so every access is both recorded and
    forwarded; [read ()] returns the accesses seen so far in order. *)
val recorder : Detector.t -> Detector.t * (unit -> Wr_mem.Access.t list)

(** [rebuild_graph ?strategy trace] reconstructs the happens-before graph
    (ids match the trace's; [strategy] defaults to
    {!Wr_hb.Graph.default_strategy}). *)
val rebuild_graph : ?strategy:Wr_hb.Graph.strategy -> t -> Wr_hb.Graph.t

(** [replay ?strategy trace ~detector] rebuilds the graph, feeds the access
    stream to a fresh detector made by [detector], and returns its
    reports. *)
val replay :
  ?strategy:Wr_hb.Graph.strategy ->
  t ->
  detector:(Wr_hb.Graph.t -> Detector.t) ->
  Race.t list

(** JSON round trip ({!of_json} raises [Wr_support.Json.Parse_error] on
    malformed documents). *)
val to_json : t -> Wr_support.Json.t

val of_json : Wr_support.Json.t -> t

(** [save t path] / [load path] — file convenience wrappers. *)
val save : t -> string -> unit

val load : string -> t
