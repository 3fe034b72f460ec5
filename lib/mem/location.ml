type elem_key =
  | Node of { uid : int; key : int }
  | Id of { doc : int; id : string; key : int }
  | Collection of { doc : int; name : string; key : int }

type handler_slot = Attr | Listener of int | Container

type t =
  | Js_var of { cell : int; name : string; key : int }
  | Html_elem of elem_key
  | Event_handler of { target : int; event : string; slot : handler_slot; key : int }

let no_key = -1

let key = function
  | Js_var { key; _ } | Event_handler { key; _ } -> key
  | Html_elem (Node { key; _ } | Id { key; _ } | Collection { key; _ }) -> key

let with_key loc key =
  match loc with
  | Js_var v -> Js_var { v with key }
  | Html_elem (Node n) -> Html_elem (Node { n with key })
  | Html_elem (Id i) -> Html_elem (Id { i with key })
  | Html_elem (Collection c) -> Html_elem (Collection { c with key })
  | Event_handler h -> Event_handler { h with key }

let conflict_relevant loc ~kind ~kind' =
  let both_writes = kind = `Write && kind' = `Write in
  match loc with
  | Html_elem (Collection _) | Event_handler { slot = Container; _ } -> not both_writes
  | Js_var _ | Html_elem (Node _ | Id _) | Event_handler { slot = Attr | Listener _; _ } ->
      true

let report_key = function
  | Event_handler { target; event; _ } ->
      Event_handler { target; event; slot = Container; key = no_key }
  | (Js_var _ | Html_elem _) as loc -> loc

(* Explicit definitions so [Js_var] name changes for reporting purposes
   never silently change identity semantics, and keys never take part.
   Interned locations are physically shared, so the first test usually
   decides. *)
let equal_slot a b =
  match a, b with
  | Attr, Attr | Container, Container -> true
  | Listener u, Listener u' -> u = u'
  | (Attr | Container | Listener _), _ -> false

let equal_elem a b =
  match a, b with
  | Node { uid; _ }, Node { uid = uid'; _ } -> uid = uid'
  | Id { doc; id; _ }, Id { doc = doc'; id = id'; _ } -> doc = doc' && String.equal id id'
  | Collection { doc; name; _ }, Collection { doc = doc'; name = name'; _ } ->
      doc = doc' && String.equal name name'
  | (Node _ | Id _ | Collection _), _ -> false

let equal (a : t) (b : t) =
  a == b
  ||
  match a, b with
  | Js_var { cell = c; _ }, Js_var { cell = c'; _ } -> c = c'
  | Html_elem k, Html_elem k' -> equal_elem k k'
  | Event_handler h, Event_handler h' ->
      h.target = h'.target && String.equal h.event h'.event && equal_slot h.slot h'.slot
  | (Js_var _ | Html_elem _ | Event_handler _), _ -> false

(* Ints are mixed in OCaml; the low three bits of the pre-image tell the
   constructors apart. Strings still go through the runtime's string
   hash, which allocates nothing. *)
let mix = Wr_support.Hash.mix

let hash = function
  | Js_var { cell; _ } -> mix (cell lsl 3)
  | Html_elem (Node { uid; _ }) -> mix ((uid lsl 3) lor 1)
  | Html_elem (Id { doc; id; _ }) -> mix ((Hashtbl.hash id lsl 3) lxor (doc lsl 35) lor 2)
  | Html_elem (Collection { doc; name; _ }) ->
      mix ((Hashtbl.hash name lsl 3) lxor (doc lsl 35) lor 3)
  | Event_handler { target; event; slot; _ } ->
      let slot = match slot with Attr -> 0 | Container -> 1 | Listener uid -> uid + 2 in
      mix ((mix ((target lsl 3) lor 4) + Hashtbl.hash event) lxor (slot lsl 20))

let pp_elem_key ppf = function
  | Node { uid; _ } -> Format.fprintf ppf "node#%d" uid
  | Id { doc; id; _ } -> Format.fprintf ppf "doc%d#%s" doc id
  | Collection { doc; name; _ } -> Format.fprintf ppf "doc%d[%s]" doc name

let pp_slot ppf = function
  | Attr -> Format.pp_print_string ppf "attr"
  | Listener uid -> Format.fprintf ppf "listener#%d" uid
  | Container -> Format.pp_print_string ppf "handlers"

let pp ppf = function
  | Js_var { cell; name; _ } -> Format.fprintf ppf "var %s@%d" name cell
  | Html_elem k -> Format.fprintf ppf "elem %a" pp_elem_key k
  | Event_handler { target; event; slot; _ } ->
      Format.fprintf ppf "handler (node#%d, %s, %a)" target event pp_slot slot

let to_string t = Format.asprintf "%a" pp t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Keys = struct
  type nonrec t = int Tbl.t

  let create () = Tbl.create 256

  let intern t loc =
    match Tbl.find t loc with
    | k -> if key loc = k then loc else with_key loc k
    | exception Not_found ->
        let k = Tbl.length t in
        Tbl.add t loc k;
        with_key loc k
end

module Cells = struct
  type loc = t

  type bucket = Empty | Entry of { owner : int; name : string; loc : loc; mutable next : bucket }

  type t = { mutable data : bucket array; mutable size : int }

  let create n =
    let rec pow2 k = if k >= n then k else pow2 (2 * k) in
    { data = Array.make (pow2 16) Empty; size = 0 }

  (* FNV-1a over the name's bytes, seeded by the owner, then mixed. *)
  let index data ~owner name =
    let h = ref (owner lxor 0x0bf29ce484222325) in
    for i = 0 to String.length name - 1 do
      h := (!h lxor Char.code (String.unsafe_get name i)) * 0x100000001b3
    done;
    mix !h land (Array.length data - 1)

  let rec find_in owner name = function
    | Empty -> raise_notrace Not_found
    | Entry e ->
        if e.owner = owner && String.equal e.name name then e.loc else find_in owner name e.next

  let find t ~owner name = find_in owner name t.data.(index t.data ~owner name)

  (* Entries are relinked in place: growing the table allocates only the
     new bucket array. *)
  let resize t =
    let data = Array.make (2 * Array.length t.data) Empty in
    let rec move = function
      | Empty -> ()
      | Entry e as entry ->
          let next = e.next in
          let i = index data ~owner:e.owner e.name in
          e.next <- data.(i);
          data.(i) <- entry;
          move next
    in
    Array.iter move t.data;
    t.data <- data

  let add t ~owner name loc =
    if t.size >= 2 * Array.length t.data then resize t;
    let i = index t.data ~owner name in
    t.data.(i) <- Entry { owner; name; loc; next = t.data.(i) };
    t.size <- t.size + 1
end
