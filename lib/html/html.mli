(** HTML parsing for the simulated browser.

    A pragmatic HTML parser: enough of the real algorithm for the pages the
    evaluation exercises — nested elements, attributes in all three
    quoting styles, boolean attributes, void elements, raw-text elements
    ([<script>]/[<style>] bodies are not tokenized as markup), comments,
    doctype, and the common named entities. Error handling is
    browser-like: unexpected close tags are ignored, unclosed elements are
    closed at end of input; nothing well-formed is rejected.

    The element {e forest} preserves source order: a pre-order walk visits
    opening tags in syntactic order, which is exactly the "E1 precedes E2"
    relation the happens-before rules for static HTML need (§3.1). *)

type attr = { name : string; value : string }

type node = Element of element | Text of string

and element = { tag : string; attrs : attr list; children : node list }

(** [parse src] parses a document or fragment into a forest. Never raises
    on malformed markup. Tag and attribute names are lowercased. [tm]
    records tokenize/tree-build spans and token counts when enabled. *)
val parse : ?tm:Wr_telemetry.Telemetry.t -> string -> node list

(** [attr elem name] finds an attribute value (first wins, names
    case-insensitive at parse time). *)
val attr : element -> string -> string option

(** [has_attr elem name] also covers boolean attributes. *)
val has_attr : element -> string -> bool

(** [el tag ?attrs children] and [text s] build nodes programmatically;
    used by the synthetic-site generator. *)
val el : string -> ?attrs:(string * string) list -> node list -> node

val text : string -> node

(** [to_string nodes] serializes a forest back to HTML (raw-text element
    bodies are emitted verbatim, other text is entity-escaped). Parsing
    the output yields an equal forest — a qcheck property. *)
val to_string : node list -> string

(** [pp] prints a readable tree for debugging. *)
val pp : Format.formatter -> node -> unit
