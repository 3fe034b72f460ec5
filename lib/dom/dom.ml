module Instr = Wr_mem.Instr
module Location = Wr_mem.Location
module Access = Wr_mem.Access

module Html = Wr_html.Html

(* Content attributes. Up to [few_limit] distinct names live in a list
   in insertion order: one cons cell and the parser's own record per
   attribute, where a table cost a 16-slot array first. Past the limit,
   or when the markup repeats a name, they live in a [Hashtbl] built by
   replaying the insertions, so a hostile element with thousands of
   attributes keeps constant-time lookups. *)
type attrs = Few of Html.attr list | Many of (string, string) Hashtbl.t

type node = {
  uid : int;
  loc : Location.t;
  tag : string;
  mutable parent : node option;
  mutable rev_children : node list;
  mutable child_count : int;
  mutable attrs : attrs;
  mutable idl : (string * string) list;
  mutable text : string;
  mutable connected_to : int;
}

type document = {
  duid : int;
  instr : Instr.t;
  doc_root : node;
  doc_url : string;
  by_id : (string, node) Hashtbl.t;  (* first-inserted wins, as in browsers *)
  (* Interned locations, so presence writes and lookups rebuild neither
     the location nor its "tag:"/"class:" name: *)
  id_locs : (string, Location.t) Hashtbl.t;  (* by id *)
  collection_locs : (string, Location.t) Hashtbl.t;  (* by collection name *)
  tag_locs : (string, Location.t) Hashtbl.t;  (* "tag:<t>", by tag *)
  class_locs : (string, Location.t list) Hashtbl.t;
      (* "class:<c>" for each class of a class attribute, by its value *)
}

let node_location node = node.loc

let id_location doc id =
  match Hashtbl.find doc.id_locs id with
  | loc -> loc
  | exception Not_found ->
      let loc =
        Location.Html_elem (Location.Id { doc = doc.duid; id; key = doc.instr.Instr.fresh_key () })
      in
      Hashtbl.add doc.id_locs id loc;
      loc

let collection_location doc name =
  match Hashtbl.find doc.collection_locs name with
  | loc -> loc
  | exception Not_found ->
      let loc =
        Location.Html_elem
          (Location.Collection { doc = doc.duid; name; key = doc.instr.Instr.fresh_key () })
      in
      Hashtbl.add doc.collection_locs name loc;
      loc

let tag_location doc tag =
  match Hashtbl.find doc.tag_locs tag with
  | loc -> loc
  | exception Not_found ->
      let loc = collection_location doc ("tag:" ^ tag) in
      Hashtbl.add doc.tag_locs tag loc;
      loc

(* HTML splits class lists on ASCII whitespace, not only on spaces. *)
let class_list value =
  String.map (function '\t' | '\n' | '\012' | '\r' -> ' ' | c -> c) value
  |> String.split_on_char ' '
  |> List.filter (fun c -> c <> "")

let class_locations doc value =
  match Hashtbl.find doc.class_locs value with
  | locs -> locs
  | exception Not_found ->
      let locs = List.map (fun c -> collection_location doc ("class:" ^ c)) (class_list value) in
      Hashtbl.add doc.class_locs value locs;
      locs

(* --- attributes --------------------------------------------------- *)

let few_limit = 8

let has_upper s = String.exists (fun c -> c >= 'A' && c <= 'Z') s

(* [s] lowercased: [s] itself when it is lowercase already, as every
   name from the HTML parser is. *)
let lower s = if has_upper s then String.lowercase_ascii s else s

let rec few_mem name = function
  | [] -> false
  | (a : Html.attr) :: rest -> String.equal a.name name || few_mem name rest

let rec few_find name = function
  | [] -> raise_notrace Not_found
  | (a : Html.attr) :: rest -> if String.equal a.name name then a.value else few_find name rest

(* The table [Hashtbl.replace] over [l] in order builds: the last value
   of a repeated name wins, at the place of its first insertion. *)
let table_of (l : Html.attr list) =
  let t = Hashtbl.create 4 in
  List.iter (fun (a : Html.attr) -> Hashtbl.replace t a.name a.value) l;
  t

let no_attrs = Few []

let attrs_of_list (l : Html.attr list) =
  let l =
    if List.exists (fun (a : Html.attr) -> has_upper a.name) l then
      List.map (fun (a : Html.attr) -> { a with name = String.lowercase_ascii a.name }) l
    else l
  in
  let rec clean n = function
    | [] -> true
    | (a : Html.attr) :: rest -> n < few_limit && (not (few_mem a.name rest)) && clean (n + 1) rest
  in
  match l with
  | [] -> no_attrs
  | _ when clean 0 l -> Few l
  | _ -> Many (table_of l) (* a repeated name, or more than [few_limit] *)

(* Raises [Not_found]; [name] is lowercase. *)
let find_attr node name =
  match node.attrs with Few l -> few_find name l | Many t -> Hashtbl.find t name

let has_attr node name =
  match node.attrs with Few l -> few_mem name l | Many t -> Hashtbl.mem t name

(* The value of [name], [""] when absent: presence writes treat both alike. *)
let attr_or_empty node name = match find_attr node name with v -> v | exception Not_found -> ""

let get_attr node name =
  match find_attr node (lower name) with v -> Some v | exception Not_found -> None

let replace_attr node name v =
  match node.attrs with
  | Many t -> Hashtbl.replace t name v
  | Few l ->
      if few_mem name l then
        node.attrs <-
          Few
            (List.map
               (fun (a : Html.attr) -> if String.equal a.name name then { a with value = v } else a)
               l)
      else if List.length l < few_limit then node.attrs <- Few (l @ [ { Html.name; value = v } ])
      else begin
        let t = table_of l in
        Hashtbl.replace t name v;
        node.attrs <- Many t
      end

(* Attributes iterate in the order a [Hashtbl.create 4] fed the same
   insertions would: by bucket (16 of them up to 32 entries), newest
   first within one. Handler registration and serialization follow this
   order, and op numbering, reports and pinned digests follow them. *)
let bucket (a : Html.attr) = Hashtbl.hash a.name land 15

let iter_attrs f node =
  match node.attrs with
  | Many t -> Hashtbl.iter f t
  | Few [] -> ()
  | Few [ a ] -> f a.name a.value
  | Few l ->
      List.iter
        (fun (a : Html.attr) -> f a.name a.value)
        (List.stable_sort (fun a b -> Int.compare (bucket a) (bucket b)) (List.rev l))

(* --- nodes -------------------------------------------------------- *)

let mk_node instr ~tag ~attrs =
  let uid = instr.Instr.fresh_id () in
  {
    uid;
    loc = Location.Html_elem (Location.Node { uid; key = instr.Instr.fresh_key () });
    tag;
    parent = None;
    rev_children = [];
    child_count = 0;
    attrs;
    idl = [];
    text = "";
    connected_to = -1;
  }

let create_document instr ~url =
  let duid = instr.Instr.fresh_id () in
  let doc_root = mk_node instr ~tag:"#document" ~attrs:no_attrs in
  doc_root.connected_to <- duid;
  {
    duid;
    instr;
    doc_root;
    doc_url = url;
    by_id = Hashtbl.create 32;
    id_locs = Hashtbl.create 32;
    collection_locs = Hashtbl.create 16;
    tag_locs = Hashtbl.create 16;
    class_locs = Hashtbl.create 16;
  }

let root doc = doc.doc_root

let url doc = doc.doc_url

let create_element doc ~tag ~attrs =
  mk_node doc.instr ~tag:(lower tag) ~attrs:(attrs_of_list attrs)

let create_text doc s =
  let n = mk_node doc.instr ~tag:"#text" ~attrs:no_attrs in
  n.text <- s;
  n

let children n = List.rev n.rev_children

let iter_subtree f node =
  let rec go n =
    f n;
    List.iter go (children n)
  in
  go node

let is_attached doc node = node.connected_to = doc.duid

let prop_cell doc ~owner name = doc.instr.Instr.cell_loc ~owner name

(* "childNodes.<i>", one string per index and domain. *)
let child_slot_names : string array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let child_slot_name i =
  let names = Domain.DLS.get child_slot_names in
  if i >= Array.length !names then begin
    let grown = Array.make (max (i + 1) (2 * Array.length !names)) "" in
    Array.blit !names 0 grown 0 (Array.length !names);
    names := grown
  end;
  match !names.(i) with
  | "" ->
      let name = "childNodes." ^ string_of_int i in
      !names.(i) <- name;
      name
  | name -> name

let emit doc loc kind = Instr.emit doc.instr loc kind

let rec write_all doc = function
  | [] -> ()
  | loc :: rest ->
      emit doc loc `Write;
      write_all doc rest

(* Writes emitted when an element (sub)tree enters or leaves the document:
   the element location, its id cell, and its collections (§4.2): its tag,
   the document.* named collections it belongs to, and one per CSS class
   (class-based queries read these). Collection cells have a
   write-write-tolerant conflict policy, see Location. *)
let emit_presence_writes doc n =
  if n.tag <> "#text" then begin
    emit doc n.loc `Write;
    (match attr_or_empty n "id" with "" -> () | id -> emit doc (id_location doc id) `Write);
    emit doc (tag_location doc n.tag) `Write;
    (match n.tag with
    | "img" -> emit doc (collection_location doc "images") `Write
    | "form" -> emit doc (collection_location doc "forms") `Write
    | "script" -> emit doc (collection_location doc "scripts") `Write
    | "a" ->
        if has_attr n "href" then emit doc (collection_location doc "links") `Write;
        if has_attr n "name" then emit doc (collection_location doc "anchors") `Write
    | _ -> ());
    match attr_or_empty n "class" with "" -> () | cs -> write_all doc (class_locations doc cs)
  end

let index_id doc n =
  match attr_or_empty n "id" with
  | "" -> ()
  | id -> if not (Hashtbl.mem doc.by_id id) then Hashtbl.add doc.by_id id n

let unindex_id doc n =
  match attr_or_empty n "id" with
  | "" -> ()
  | id -> (
      match Hashtbl.find_opt doc.by_id id with
      | Some current when current.uid = n.uid -> Hashtbl.remove doc.by_id id
      | Some _ | None -> ())

(* Pre-order over [n]'s subtree: mark it connected to [root_doc] (a
   document uid, or -1 for detached), and when that is [doc] emit the
   presence writes and keep the id index. A childless node, as every
   parsed element is when inserted, costs no list walk. *)
let rec reconnect doc ~root_doc ~attach n =
  n.connected_to <- root_doc;
  if attach then begin
    emit_presence_writes doc n;
    index_id doc n
  end;
  match n.rev_children with
  | [] -> ()
  | rev -> List.iter (reconnect doc ~root_doc ~attach) (List.rev rev)

let rec disconnect doc ~detach n =
  n.connected_to <- -1;
  if detach then begin
    emit_presence_writes doc n;
    unindex_id doc n
  end;
  match n.rev_children with
  | [] -> ()
  | rev -> List.iter (disconnect doc ~detach) (List.rev rev)

let check_insertable ~parent ~child =
  (match child.parent with Some _ -> invalid_arg "Dom: node already has a parent" | None -> ());
  (* Only a node with children can be a proper ancestor of [parent]. *)
  let rec is_ancestor n =
    n.uid = child.uid || match n.parent with Some p -> is_ancestor p | None -> false
  in
  if parent.uid = child.uid || (child.rev_children <> [] && is_ancestor parent) then
    invalid_arg "Dom: insertion would create a cycle"

let finish_insert doc ~parent ~child ~index =
  child.parent <- Some parent;
  parent.child_count <- parent.child_count + 1;
  (* Structural property writes: parentNode of the child, childNodes.i of
     the parent (§4.1 "additional cases"). *)
  emit doc (prop_cell doc ~owner:child.uid "parentNode") `Write;
  emit doc (prop_cell doc ~owner:parent.uid (child_slot_name index)) `Write;
  (* The whole subtree becomes visible. *)
  if parent.connected_to >= 0 then
    reconnect doc ~root_doc:parent.connected_to ~attach:(parent.connected_to = doc.duid) child

let append doc ~parent ~child =
  check_insertable ~parent ~child;
  let index = parent.child_count in
  parent.rev_children <- child :: parent.rev_children;
  finish_insert doc ~parent ~child ~index

let insert_before doc ~parent ~child ~before =
  check_insertable ~parent ~child;
  let ordered = children parent in
  if not (List.exists (fun c -> c.uid = before.uid) ordered) then
    invalid_arg "Dom.insert_before: reference node is not a child of parent";
  let index =
    let rec find i = function
      | [] -> i
      | c :: rest -> if c.uid = before.uid then i else find (i + 1) rest
    in
    find 0 ordered
  in
  parent.rev_children <-
    List.rev
      (List.concat_map (fun c -> if c.uid = before.uid then [ child; c ] else [ c ]) ordered);
  finish_insert doc ~parent ~child ~index

let remove doc node =
  match node.parent with
  | None -> ()
  | Some parent ->
      let attached = is_attached doc node in
      parent.rev_children <- List.filter (fun c -> c.uid <> node.uid) parent.rev_children;
      parent.child_count <- parent.child_count - 1;
      node.parent <- None;
      emit doc (prop_cell doc ~owner:node.uid "parentNode") `Write;
      if node.connected_to >= 0 then disconnect doc ~detach:attached node

let get_element_by_id doc id =
  match Hashtbl.find_opt doc.by_id id with
  | Some n ->
      (* Only the id cell is read: insertion/removal write it too, so one
         unordered lookup/insertion pair yields exactly one race report. *)
      emit doc (id_location doc id) `Read;
      Some n
  | None ->
      Instr.emit_flagged doc.instr [ Access.Observed_miss ] (id_location doc id) `Read;
      None

let elements_in_order doc =
  let out = ref [] in
  iter_subtree (fun n -> if n.tag <> "#text" && n.uid <> doc.doc_root.uid then out := n :: !out) doc.doc_root;
  List.rev !out

let document_order = elements_in_order

let read_collection doc loc pred =
  emit doc loc `Read;
  let nodes = List.filter pred (elements_in_order doc) in
  List.iter (fun n -> emit doc n.loc `Read) nodes;
  nodes

let get_elements_by_tag_name doc tag =
  let tag = lower tag in
  read_collection doc (tag_location doc tag) (fun n -> n.tag = tag)

let collection doc name =
  let pred n =
    match name with
    | "images" -> n.tag = "img"
    | "forms" -> n.tag = "form"
    | "scripts" -> n.tag = "script"
    | "links" -> n.tag = "a" && has_attr n "href"
    | "anchors" -> n.tag = "a" && has_attr n "name"
    | _ -> false
  in
  read_collection doc (collection_location doc name) pred

let set_attr doc node name v =
  let name = lower name in
  let attached = is_attached doc node in
  if name = "id" then begin
    (match get_attr node "id" with
    | Some old when old <> "" && Hashtbl.mem doc.by_id old -> (
        match Hashtbl.find_opt doc.by_id old with
        | Some cur when cur.uid = node.uid ->
            Hashtbl.remove doc.by_id old;
            emit doc (id_location doc old) `Write
        | Some _ | None -> ())
    | Some _ | None -> ());
    if v <> "" && attached then begin
      if not (Hashtbl.mem doc.by_id v) then Hashtbl.add doc.by_id v node;
      emit doc (id_location doc v) `Write
    end
  end;
  if name = "class" && attached then begin
    let old_classes = match get_attr node "class" with Some v -> class_list v | None -> [] in
    List.iter
      (fun c -> emit doc (collection_location doc ("class:" ^ c)) `Write)
      (List.sort_uniq compare (old_classes @ class_list v))
  end;
  replace_attr node name v;
  emit doc (prop_cell doc ~owner:node.uid name) `Write

let form_field_tags = [ "input"; "textarea"; "select"; "option"; "button" ]

let idl_flags node name flags =
  if List.mem node.tag form_field_tags && (name = "value" || name = "checked") then
    Access.Form_field :: flags
  else flags

let set_idl doc node ?(flags = []) name v =
  Instr.emit_flagged doc.instr (idl_flags node name flags)
    (prop_cell doc ~owner:node.uid name)
    `Write;
  node.idl <- (name, v) :: List.remove_assoc name node.idl

let get_idl doc node ?(flags = []) name =
  Instr.emit_flagged doc.instr (idl_flags node name flags)
    (prop_cell doc ~owner:node.uid name)
    `Read;
  match List.assoc_opt name node.idl with
  | Some v -> Some v
  | None -> get_attr node name (* IDL reflects the content attribute initially *)
