module Instr = Wr_mem.Instr
module Location = Wr_mem.Location
module Access = Wr_mem.Access

type node = {
  uid : int;
  loc : Location.t;
  tag : string;
  doc_uid : int;
  mutable parent : node option;
  mutable rev_children : node list;
  mutable child_count : int;
  attrs : (string, string) Hashtbl.t;
  idl : (string, string) Hashtbl.t;
  mutable text : string;
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
      let loc = Location.Html_elem (Location.Id { doc = doc.duid; id }) in
      Hashtbl.add doc.id_locs id loc;
      loc

let collection_location doc name =
  match Hashtbl.find doc.collection_locs name with
  | loc -> loc
  | exception Not_found ->
      let loc = Location.Html_elem (Location.Collection { doc = doc.duid; name }) in
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

let mk_node instr ~tag ~doc_uid ~attrs =
  let uid = instr.Instr.fresh_id () in
  {
    uid;
    loc = Location.Html_elem (Location.Node uid);
    tag;
    doc_uid;
    parent = None;
    rev_children = [];
    child_count = 0;
    attrs =
      (let t = Hashtbl.create 4 in
       List.iter (fun (k, v) -> Hashtbl.replace t (String.lowercase_ascii k) v) attrs;
       t);
    idl = Hashtbl.create 2;
    text = "";
  }

let create_document instr ~url =
  let duid = instr.Instr.fresh_id () in
  {
    duid;
    instr;
    doc_root = mk_node instr ~tag:"#document" ~doc_uid:duid ~attrs:[];
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
  mk_node doc.instr ~tag:(String.lowercase_ascii tag) ~doc_uid:doc.duid ~attrs

let create_text doc s =
  let n = mk_node doc.instr ~tag:"#text" ~doc_uid:doc.duid ~attrs:[] in
  n.text <- s;
  n

let get_attr node name = Hashtbl.find_opt node.attrs (String.lowercase_ascii name)

let children n = List.rev n.rev_children

let iter_subtree f node =
  let rec go n =
    f n;
    List.iter go (children n)
  in
  go node

let rec is_root_reachable doc n =
  n.uid = doc.doc_root.uid
  || match n.parent with Some p -> is_root_reachable doc p | None -> false

let is_attached doc node = is_root_reachable doc node

let prop_cell doc ~owner name = doc.instr.Instr.cell_loc ~owner name

let emit doc ?flags loc kind = Instr.emit doc.instr ?flags loc kind

let rec write_all doc = function
  | [] -> ()
  | loc :: rest ->
      emit doc loc `Write;
      write_all doc rest

(* Writes emitted when an element (sub)tree enters or leaves the document:
   the element location, its id cell, and its collections (§4.2): its tag,
   the document.* named collections it belongs to, and one per CSS class
   (class-based queries read these). Collection cells have a
   write-write-tolerant conflict policy, see Location. Attribute names are
   stored lowercased, so the lookups here skip [get_attr]'s lowercasing. *)
let emit_presence_writes doc n =
  if n.tag <> "#text" then begin
    emit doc n.loc `Write;
    (match Hashtbl.find_opt n.attrs "id" with
    | Some id when id <> "" -> emit doc (id_location doc id) `Write
    | Some _ | None -> ());
    emit doc (tag_location doc n.tag) `Write;
    (match n.tag with
    | "img" -> emit doc (collection_location doc "images") `Write
    | "form" -> emit doc (collection_location doc "forms") `Write
    | "script" -> emit doc (collection_location doc "scripts") `Write
    | "a" ->
        if Hashtbl.mem n.attrs "href" then emit doc (collection_location doc "links") `Write;
        if Hashtbl.mem n.attrs "name" then emit doc (collection_location doc "anchors") `Write
    | _ -> ());
    match Hashtbl.find_opt n.attrs "class" with
    | Some cs -> write_all doc (class_locations doc cs)
    | None -> ()
  end

let index_ids doc n =
  iter_subtree
    (fun n ->
      match get_attr n "id" with
      | Some id when id <> "" -> if not (Hashtbl.mem doc.by_id id) then Hashtbl.add doc.by_id id n
      | Some _ | None -> ())
    n

let unindex_ids doc n =
  iter_subtree
    (fun n ->
      match get_attr n "id" with
      | Some id when id <> "" -> (
          match Hashtbl.find_opt doc.by_id id with
          | Some current when current.uid = n.uid -> Hashtbl.remove doc.by_id id
          | Some _ | None -> ())
      | Some _ | None -> ())
    n

let check_insertable ~parent ~child =
  if child.parent <> None then invalid_arg "Dom: node already has a parent";
  let rec is_ancestor n =
    n.uid = child.uid || match n.parent with Some p -> is_ancestor p | None -> false
  in
  if is_ancestor parent then invalid_arg "Dom: insertion would create a cycle"

let finish_insert doc ~parent ~child ~index =
  child.parent <- Some parent;
  parent.child_count <- parent.child_count + 1;
  (* Structural property writes: parentNode of the child, childNodes.i of
     the parent (§4.1 "additional cases"). *)
  emit doc (prop_cell doc ~owner:child.uid "parentNode") `Write;
  emit doc (prop_cell doc ~owner:parent.uid ("childNodes." ^ string_of_int index)) `Write;
  (* The whole subtree becomes visible. *)
  if is_root_reachable doc parent then begin
    iter_subtree (emit_presence_writes doc) child;
    index_ids doc child
  end

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
      let attached = is_root_reachable doc node in
      parent.rev_children <- List.filter (fun c -> c.uid <> node.uid) parent.rev_children;
      parent.child_count <- parent.child_count - 1;
      node.parent <- None;
      emit doc (prop_cell doc ~owner:node.uid "parentNode") `Write;
      if attached then begin
        iter_subtree (emit_presence_writes doc) node;
        unindex_ids doc node
      end

let get_element_by_id doc id =
  match Hashtbl.find_opt doc.by_id id with
  | Some n ->
      (* Only the id cell is read: insertion/removal write it too, so one
         unordered lookup/insertion pair yields exactly one race report. *)
      emit doc (id_location doc id) `Read;
      Some n
  | None ->
      emit doc ~flags:[ Access.Observed_miss ] (id_location doc id) `Read;
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
  let tag = String.lowercase_ascii tag in
  read_collection doc (tag_location doc tag) (fun n -> n.tag = tag)

let collection doc name =
  let pred n =
    match name with
    | "images" -> n.tag = "img"
    | "forms" -> n.tag = "form"
    | "scripts" -> n.tag = "script"
    | "links" -> n.tag = "a" && get_attr n "href" <> None
    | "anchors" -> n.tag = "a" && get_attr n "name" <> None
    | _ -> false
  in
  read_collection doc (collection_location doc name) pred

let set_attr doc node name v =
  let name = String.lowercase_ascii name in
  if name = "id" then begin
    (match get_attr node "id" with
    | Some old when old <> "" && Hashtbl.mem doc.by_id old -> (
        match Hashtbl.find_opt doc.by_id old with
        | Some cur when cur.uid = node.uid ->
            Hashtbl.remove doc.by_id old;
            emit doc (id_location doc old) `Write
        | Some _ | None -> ())
    | Some _ | None -> ());
    if v <> "" && is_root_reachable doc node then begin
      if not (Hashtbl.mem doc.by_id v) then Hashtbl.add doc.by_id v node;
      emit doc (id_location doc v) `Write
    end
  end;
  if name = "class" && is_root_reachable doc node then begin
    let old_classes = match get_attr node "class" with Some v -> class_list v | None -> [] in
    List.iter
      (fun c -> emit doc (collection_location doc ("class:" ^ c)) `Write)
      (List.sort_uniq compare (old_classes @ class_list v))
  end;
  Hashtbl.replace node.attrs name v;
  emit doc (prop_cell doc ~owner:node.uid name) `Write

let form_field_tags = [ "input"; "textarea"; "select"; "option"; "button" ]

let idl_flags node name flags =
  if List.mem node.tag form_field_tags && (name = "value" || name = "checked") then
    Access.Form_field :: flags
  else flags

let set_idl doc node ?(flags = []) name v =
  emit doc ~flags:(idl_flags node name flags) (prop_cell doc ~owner:node.uid name) `Write;
  Hashtbl.replace node.idl name v

let get_idl doc node ?(flags = []) name =
  emit doc ~flags:(idl_flags node name flags) (prop_cell doc ~owner:node.uid name) `Read;
  match Hashtbl.find_opt node.idl name with
  | Some v -> Some v
  | None -> get_attr node name (* IDL reflects the content attribute initially *)
