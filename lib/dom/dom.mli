(** The DOM tree, instrumented per the paper's HTML-element access model.

    §4.2 defines writes to an HTML element as its insertion into or removal
    from a document (recursively including children), and reads as accessor
    calls like [getElementById]. This module emits exactly those logical
    accesses through the shared {!Wr_mem.Instr} context:

    - insertion/removal write the element's [Node] location, its
      [Id] location when it carries an id, and the document [Collection]
      locations its tag participates in;
    - insertion/removal also write the structural [parentNode] /
      [childNodes.i] object properties (§4.1 "additional cases");
    - [get_element_by_id] reads the per-document [Id] cell hit or miss
      (a miss carries [Observed_miss]); insertion and removal write the
      same cell, so one unordered lookup/insertion pair is one race;
    - collection accessors read the [Collection] cell plus every returned
      node's location.

    Event-handler attributes are NOT handled here — the browser's event
    layer owns those (§4.3). *)

(** Content attributes: a short list up to eight names, a table past
    that or when the markup repeats a name. Read them with {!get_attr}
    and {!iter_attrs}. *)
type attrs

type node = {
  uid : int;
  loc : Wr_mem.Location.t;  (** the element's [Node] location, built once *)
  tag : string;  (** "#document" for the root, "#text" for text nodes *)
  mutable parent : node option;
  mutable rev_children : node list;
      (** newest-first internal storage so appends are O(1); use
          {!children} for document order *)
  mutable child_count : int;
  mutable attrs : attrs;  (** content attributes (lowercased names) *)
  mutable idl : (string * string) list;  (** IDL state: value, checked *)
  mutable text : string;  (** text payload for [#text] and raw-text elements *)
  mutable connected_to : int;
      (** uid of the document whose root reaches this node, [-1] when
          detached; kept on insert and remove, so {!is_attached} is O(1) *)
}

type document

(** [create_document instr ~url] makes an empty document with a synthetic
    [#document] root node. *)
val create_document : Wr_mem.Instr.t -> url:string -> document

val root : document -> node

val url : document -> string

(** [create_element doc ~tag ~attrs] allocates a detached element. No
    access is emitted — creation only becomes visible on insertion. Tag
    and attribute names are lowercased (the parser's already are, and are
    kept without a copy); a repeated attribute keeps its last value. *)
val create_element : document -> tag:string -> attrs:Wr_html.Html.attr list -> node

(** [create_text doc s] allocates a detached text node. *)
val create_text : document -> string -> node

(** [append doc ~parent ~child] inserts [child] (and its subtree) as
    [parent]'s last child, emitting the §4.2 write accesses. Raises
    [Invalid_argument] if [child] already has a parent or the insertion
    would create a cycle. *)
val append : document -> parent:node -> child:node -> unit

(** [insert_before doc ~parent ~child ~before] inserts before an existing
    child ([before] must be a child of [parent]). *)
val insert_before : document -> parent:node -> child:node -> before:node -> unit

(** [remove doc node] detaches [node] from its parent, emitting removal
    writes for the subtree. No-op on detached nodes. *)
val remove : document -> node -> unit

(** [get_element_by_id doc id] — instrumented read; [None] records a miss
    on the id cell. *)
val get_element_by_id : document -> string -> node option

(** [get_elements_by_tag_name doc tag] — instrumented collection read, in
    document order. *)
val get_elements_by_tag_name : document -> string -> node list

(** [collection doc name] reads one of the named document collections:
    "images", "forms", "links", "anchors", "scripts". *)
val collection : document -> string -> node list

(** [set_attr doc node name v] sets a content attribute (maintaining the id
    index and emitting a property write). *)
val set_attr : document -> node -> string -> string -> unit

(** [get_attr node name] reads a content attribute without instrumentation
    (markup inspection, not a §4 logical access). *)
val get_attr : node -> string -> string option

(** [iter_attrs f node] applies [f name value] to each content attribute,
    in the order a [Hashtbl] fed the same insertions iterates: by bucket,
    newest first within one. Handler registration and serialization
    follow it, so op numbering and reports stay as they were. *)
val iter_attrs : (string -> string -> unit) -> node -> unit

(** [child_slot_name i] is ["childNodes.<i>"], one shared string per
    index: the name of a parent's [i]-th child property cell. *)
val child_slot_name : int -> string

(** [class_list value] splits a [class] attribute value into its class
    names, on ASCII whitespace (space, tab, LF, FF, CR) as HTML does;
    empty tokens are dropped. *)
val class_list : string -> string list

(** [set_idl doc node ?flags name v] / [get_idl doc node ?flags name]
    access IDL state like an input's [value] — the form-field locations of
    Fig. 2. Flags let the browser mark user-input writes. *)
val set_idl :
  document -> node -> ?flags:Wr_mem.Access.flag list -> string -> string -> unit

val get_idl :
  document -> node -> ?flags:Wr_mem.Access.flag list -> string -> string option

(** [children node] lists the node's children in document order. *)
val children : node -> node list

(** [node_location node] is the element's logical [Node] location. *)
val node_location : node -> Wr_mem.Location.t

(** [collection_location doc name] is the document's [Collection]
    location [name] (e.g. ["tag:div"], ["class:x"], ["images"]), interned
    per document. *)
val collection_location : document -> string -> Wr_mem.Location.t

(** [iter_subtree f node] applies [f] pre-order to [node] and descendants. *)
val iter_subtree : (node -> unit) -> node -> unit

(** [document_order doc] lists all element nodes in document order. *)
val document_order : document -> node list

(** [is_attached doc node] is true when [node] is reachable from the
    document root. *)
val is_attached : document -> node -> bool
