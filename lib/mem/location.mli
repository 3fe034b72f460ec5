(** Logical memory locations (paper §4).

    The web platform has no natural machine-level notion of a memory access:
    operations touch JavaScript heap cells, browser-internal DOM structures,
    or both. The paper therefore defines three classes of logical locations,
    independent of browser implementation:

    - JavaScript variables ([Js_var]) — local variables captured by
      closures, object properties, globals (§4.1);
    - HTML elements ([Html_elem]) — written by insertion/removal, read by
      accessors like [getElementById] (§4.2);
    - event handlers ([Event_handler]) — a triple (element, event, handler)
      so that accesses manipulating disjoint handlers for the same event do
      not interfere (§4.3).

    Two refinements make the model implementable without WebKit's concrete
    addresses (both documented in DESIGN.md):

    - element lookups are keyed: [Node] for a concrete element's existence,
      [Id] for the per-document id cell that a [getElementById] reads
      whether or not it hits (Fig. 3's race needs the miss to conflict with
      the later insertion), [Collection] for tag/name-keyed accessors;
    - each (element, event) pair has one extra [Container] slot that event
      dispatch reads and every handler registration writes. Write-write
      conflicts on containers and collections are suppressed by
      {!conflict_relevant} to preserve the §4.3 non-interference of disjoint
      handlers. *)

type elem_key =
  | Node of { uid : int; key : int }  (** a concrete element, by node uid *)
  | Id of { doc : int; id : string; key : int }  (** the per-document id-lookup cell *)
  | Collection of { doc : int; name : string; key : int }
      (** a document-level collection accessor cell, e.g. "tag:div",
          "images", "forms" *)

type handler_slot =
  | Attr  (** the element's [on<event>] attribute/property slot *)
  | Listener of int  (** an [addEventListener] handler, keyed by function uid *)
  | Container  (** the per-(element, event) handler container *)

(** Every constructor carries a [key]: the location's dense integer key
    within one analysis (see {!key}). It is not part of the location's
    identity: {!equal}, {!hash} and {!pp} ignore it. *)
type t =
  | Js_var of { cell : int; name : string; key : int }
      (** a runtime binding cell or object property slot; [cell] uniquely
          identifies the heap cell, [name] is for reports *)
  | Html_elem of elem_key
  | Event_handler of { target : int; event : string; slot : handler_slot; key : int }

(** {2 Dense keys}

    The detectors keep their per-location state in columns indexed by
    key, so recording an access hashes nothing. The key invariant: within
    one analysis, two locations have equal keys iff {!equal} holds for
    them, and keys are small non-negative ints, minted in order from a
    per-analysis counter (apart from the counter of node, object and cell
    ids, so no id or printed name depends on them).

    Each location value is built once, where it is interned, and takes
    its key there: the JS VM's {!Cells} and frame cells, the DOM's node
    constructor and its id and collection tables, and the event registry.
    A trace loaded from JSON re-mints its keys through one {!Keys} table.
    Locations built elsewhere (report keys, hand-built test values) carry
    {!no_key} until interned through {!Keys}. *)

(** [no_key] ([-1]) marks a location that has no key yet; the detectors
    reject it. *)
val no_key : int

(** [key loc] is [loc]'s dense key, or {!no_key}. *)
val key : t -> int

(** [conflict_relevant loc ~kind ~kind'] decides whether two accesses of the
    given kinds on [loc] may constitute a race. Write-write pairs on
    [Container] and [Collection] locations are exempt (disjoint handler
    registrations / unrelated insertions must not interfere); everything
    else follows the usual "at least one write" rule, which the detector
    has already established before asking. *)
val conflict_relevant : t -> kind:[ `Read | `Write ] -> kind':[ `Read | `Write ] -> bool

(** [report_key loc] canonicalizes a location for the "at most one race
    report per location per run" rule (paper footnote 13). Event-handler
    locations collapse to their (target, event) pair: a single registration
    races with a single dispatch through both the handler slot and the
    container, and reporting that twice would double-count what the paper
    counts as one event dispatch race. Other locations are their own
    key. A collapsed handler location carries {!no_key}. *)
val report_key : t -> t

(** [equal a b] is location identity: [Js_var]s by cell alone, the rest
    structurally, keys aside. Physically equal locations are equal at
    once. *)
val equal : t -> t -> bool

(** [hash t] is compatible with {!equal}. It mixes ints in OCaml
    ({!Wr_support.Hash.mix}) and allocates nothing. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Hash tables keyed by location, used by the detectors. *)
module Tbl : Hashtbl.S with type key = t

(** Key minting by identity, for locations that were not built at an
    interning site: a trace read back from JSON, or hand-built values. *)
module Keys : sig
  type loc := t

  type t

  (** [create ()] is an empty table; its keys start at 0. *)
  val create : unit -> t

  (** [intern t loc] is [loc] carrying the key [t] gave the first location
      {!equal} to it, or the next unused key when there was none. It is
      [loc] itself when that already carries the key. *)
  val intern : t -> loc -> loc
end

(** An interning table from (owner, name) to a cell's [Js_var]: object
    properties, globals and the DOM's structural properties each resolve
    to one location value, built once. Keys are compared as ints and
    strings, never through polymorphic compare or hash, and a lookup
    allocates nothing. *)
module Cells : sig
  type loc := t

  type t

  (** [create n] is an empty table sized for about [n] cells. *)
  val create : int -> t

  (** [find t ~owner name] is the location interned for (owner, name).
      Raises [Not_found] (without a backtrace) when there is none. *)
  val find : t -> owner:int -> string -> loc

  (** [add t ~owner name loc] interns [loc] for (owner, name), which must
      not be bound yet. *)
  val add : t -> owner:int -> string -> loc -> unit
end
