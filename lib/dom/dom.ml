module Instr = Wr_mem.Instr
module Location = Wr_mem.Location
module Access = Wr_mem.Access

type node = {
  uid : int;
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
}

let node_location node = Location.Html_elem (Location.Node node.uid)

let id_location doc id = Location.Html_elem (Location.Id { doc = doc.duid; id })

let collection_location doc name =
  Location.Html_elem (Location.Collection { doc = doc.duid; name })

(* HTML splits class lists on ASCII whitespace, not only on spaces. *)
let class_list value =
  String.map (function '\t' | '\n' | '\012' | '\r' -> ' ' | c -> c) value
  |> String.split_on_char ' '
  |> List.filter (fun c -> c <> "")

(* Which named collections a tag belongs to: per-tag, the document.* named
   collections, and one per CSS class (class-based queries read these). *)
let collections_of_tag tag attrs =
  let has name = List.mem_assoc name attrs in
  let named =
    match tag with
    | "img" -> [ "images" ]
    | "form" -> [ "forms" ]
    | "script" -> [ "scripts" ]
    | "a" ->
        (if has "href" then [ "links" ] else []) @ if has "name" then [ "anchors" ] else []
    | _ -> []
  in
  let classes =
    match List.assoc_opt "class" attrs with
    | Some cs -> List.map (fun c -> "class:" ^ c) (class_list cs)
    | None -> []
  in
  (("tag:" ^ tag) :: named) @ classes

let mk_node instr ~tag ~doc_uid ~attrs =
  {
    uid = instr.Instr.fresh_id ();
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
  }

let doc_uid doc = doc.duid

let root doc = doc.doc_root

let url doc = doc.doc_url

let create_element doc ~tag ~attrs =
  mk_node doc.instr ~tag:(String.lowercase_ascii tag) ~doc_uid:doc.duid ~attrs

let create_text doc s =
  let n = mk_node doc.instr ~tag:"#text" ~doc_uid:doc.duid ~attrs:[] in
  n.text <- s;
  n

let get_attr node name = Hashtbl.find_opt node.attrs (String.lowercase_ascii name)

let attr_list node = Hashtbl.fold (fun k v acc -> (k, v) :: acc) node.attrs []

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

let prop_cell doc ~owner name =
  Location.Js_var { cell = doc.instr.Instr.cell_id ~owner name; name }

let emit doc ?flags loc kind = Instr.emit doc.instr ?flags loc kind

(* Writes emitted when an element (sub)tree enters or leaves the document:
   the element location, its id cell, and its collections (§4.2). Collection
   cells have a write-write-tolerant conflict policy, see Location. *)
let emit_presence_writes doc n =
  if n.tag <> "#text" then begin
    emit doc (node_location n) `Write;
    (match get_attr n "id" with Some id when id <> "" -> emit doc (id_location doc id) `Write | _ -> ());
    List.iter
      (fun c -> emit doc (collection_location doc c) `Write)
      (collections_of_tag n.tag (attr_list n))
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
  emit doc (prop_cell doc ~owner:parent.uid (Printf.sprintf "childNodes.%d" index)) `Write;
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

let read_collection doc name pred =
  emit doc (collection_location doc name) `Read;
  let nodes = List.filter pred (elements_in_order doc) in
  List.iter (fun n -> emit doc (node_location n) `Read) nodes;
  nodes

let get_elements_by_tag_name doc tag =
  let tag = String.lowercase_ascii tag in
  read_collection doc ("tag:" ^ tag) (fun n -> n.tag = tag)

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
  read_collection doc name pred

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

let pp_node ppf n =
  match get_attr n "id" with
  | Some id -> Format.fprintf ppf "<%s#%s uid=%d>" n.tag id n.uid
  | None -> Format.fprintf ppf "<%s uid=%d>" n.tag n.uid
