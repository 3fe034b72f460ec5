(** Race witnesses — checkable evidence for every reported race.

    The paper spends most of §6 on filters and classification because raw
    race reports are unreadable: a developer is told two accesses conflict
    but not {e why} the tool believes they can interleave. This module
    turns each {!Wr_detect.Race.t} into a {!witness} extracted from the
    happens-before graph:

    - a {b provenance chain} per racing operation — the path of creation
      edges from the root operation (which parser step, script, timer or
      dispatched event ultimately spawned it);
    - the {b nearest common HB ancestor} — the latest operation ordered
      before both accesses, where their control flow forked;
    - the {b no-path frontier} — a certificate that [happens_before]
      holds in neither direction. Operation ids are assigned in schedule
      order and every HB edge points from an older to a newer operation,
      so the newer access trivially cannot reach the older one; the
      frontier proves the nontrivial direction. It is the set of
      operations backward-reachable from the newer access without passing
      below the older one. {!verify} re-checks it against the graph:
      the newer access is in the set, the older is not, and the set is
      closed under predecessor edges that stay at or above the older
      access — so any HB path between the accesses would contradict the
      set's closure. A fabricated frontier (an op dropped, or a pair that
      is in fact ordered) fails the check.

    Witnesses are self-contained evidence: they can be re-verified against
    the graph by a third party without trusting the detector, pretty
    printed, exported as JSON, or rendered as a highlighted Graphviz
    subgraph containing only the evidence operations. *)

module Op = Wr_hb.Op
module Graph = Wr_hb.Graph
module Race = Wr_detect.Race

type witness = {
  race : Race.t;
  older : Op.id;  (** the racing operation with the smaller id *)
  newer : Op.id;  (** the racing operation with the larger id *)
  older_provenance : Op.info list;
      (** creation chain, root first, ending at [older] *)
  newer_provenance : Op.info list;  (** likewise for [newer] *)
  common_ancestor : Op.id option;
      (** nearest common HB ancestor of the two, [None] when the only
          shared history is absent (disconnected roots) *)
  frontier : Op.id list;
      (** sorted certificate set for [not (happens_before older newer)]:
          ops backward-reachable from [newer] with ids >= [older] *)
}

(** [provenance g op] walks creation edges from [op] back to a root: at
    each step it follows the operation's {e first-added} predecessor edge
    (the edge recorded when the operation was scheduled — later edges are
    ordering constraints, not provenance). Returned root-first, ending at
    [op]. *)
val provenance : Graph.t -> Op.id -> Op.info list

(** [nearest_common_ancestor g a b] is the largest-id operation that
    happens-before both [a] and [b] (ids order creation, so "largest id"
    is "nearest"). [None] when no operation precedes both. *)
val nearest_common_ancestor : Graph.t -> Op.id -> Op.id -> Op.id option

(** [frontier g ~older ~newer] computes the certificate set: every
    operation backward-reachable from [newer] along predecessor edges
    without visiting an id below [older]. Requires [older < newer].
    [older] is a member iff [happens_before g older newer] — so for a
    true race it is absent. Sorted ascending. *)
val frontier : Graph.t -> older:Op.id -> newer:Op.id -> Op.id list

(** [of_race g race] extracts the full witness for a reported race. *)
val of_race : Graph.t -> Race.t -> witness

(** [of_races g races] is [List.map (of_race g) races]. *)
val of_races : Graph.t -> Race.t list -> witness list

(** [verify g w] re-checks the witness against the graph — the
    machine-checkable part of the report:

    - [older < newer] and both ids exist (rules out the newer-to-older
      direction by topological id order);
    - the frontier contains [newer], excludes [older], stays within
      [[older, newer]], and is closed under predecessors [>= older] —
      together certifying [not (happens_before older newer)];
    - both provenance chains start at a root (no predecessors), end at
      their access, and follow direct graph edges;
    - the common ancestor, when present, happens-before both accesses.

    Returns [false] on any forged or stale component. *)
val verify : Graph.t -> witness -> bool

(** [dot g w] renders the witness as a Graphviz subgraph: only the
    evidence operations (both provenance chains, the frontier, the common
    ancestor), with the racing operations outlined red and the provenance
    paths drawn as bold red edges. *)
val dot : Graph.t -> witness -> string

(** [dot_many g ws] — one subgraph covering several witnesses (the
    [--dot] export when no single race is selected). *)
val dot_many : Graph.t -> witness list -> string

val pp : Graph.t -> Format.formatter -> witness -> unit

(** [to_json g w] includes the witness fields plus [certified], the
    result of {!verify} at export time, under a top-level
    ["schema_version"] ({!Wr_support.Schema.version}). It encodes [w]
    exactly as given, forged or not. *)
val to_json : Graph.t -> witness -> Wr_support.Json.t

(** [encoder g] is the per-report witness encoder: [encoder g race] is
    [to_json g (of_race g race)], byte for byte, but each op object is
    encoded once, each provenance chain once per endpoint op, and the
    whole witness once per distinct racing pair — the witness JSON holds
    no field of the race beyond its two ops, so races sharing a pair get
    the same (physically shared) value, still certified by {!verify}.

    The encoder derives every witness itself from the race; it never
    takes a caller's witness. That is what makes caching a chain by its
    endpoint sound: a cached chain can only have come from
    {!provenance}. To encode a hand-built or forged witness use
    {!to_json}, which shares the op and chain encoding but no cache.

    Use one encoder per report (its caches hold encoded bytes for [g]'s
    ops); they are allocated on the first race, so race-free reports pay
    nothing. Not safe to share between domains. *)
val encoder : Graph.t -> Race.t -> Wr_support.Json.t
