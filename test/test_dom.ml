(* Unit tests for the instrumented DOM. *)

open Wr_dom
module Location = Wr_mem.Location
module Access = Wr_mem.Access

let with_doc f =
  let log = ref [] in
  let base = Wr_mem.Instr.null () in
  let instr = { base with Wr_mem.Instr.sink =
        (fun loc kind op flags context ->
          log := { Wr_mem.Access.loc; kind; op; flags; context } :: !log) } in
  let doc = Dom.create_document instr ~url:"http://example.test/" in
  f doc (fun () -> List.rev !log)

let elem doc ?(attrs = []) tag =
  Dom.create_element doc ~tag
    ~attrs:(List.map (fun (name, value) -> { Wr_html.Html.name; value }) attrs)

let test_append_and_query () =
  with_doc (fun doc _log ->
      let div = elem doc ~attrs:[ ("id", "a") ] "div" in
      Dom.append doc ~parent:(Dom.root doc) ~child:div;
      (match Dom.get_element_by_id doc "a" with
      | Some n -> Alcotest.(check string) "found" "div" n.Dom.tag
      | None -> Alcotest.fail "id lookup failed");
      Alcotest.(check bool) "attached" true (Dom.is_attached doc div))

let test_miss_read_flags () =
  with_doc (fun doc log ->
      (match Dom.get_element_by_id doc "nope" with
      | None -> ()
      | Some _ -> Alcotest.fail "phantom element");
      match log () with
      | [ a ] ->
          Alcotest.(check bool) "miss flag" true (Access.has_flag a Access.Observed_miss);
          (match a.Access.loc with
          | Location.Html_elem (Location.Id { id = "nope"; _ }) -> ()
          | _ -> Alcotest.fail "wrong location")
      | l -> Alcotest.failf "expected 1 access, got %d" (List.length l))

let test_miss_then_insert_same_location () =
  with_doc (fun doc log ->
      ignore (Dom.get_element_by_id doc "dw");
      let dw = elem doc ~attrs:[ ("id", "dw") ] "div" in
      Dom.append doc ~parent:(Dom.root doc) ~child:dw;
      let id_accesses =
        List.filter
          (fun (a : Access.t) ->
            match a.Access.loc with
            | Location.Html_elem (Location.Id { id = "dw"; _ }) -> true
            | _ -> false)
          (log ())
      in
      match id_accesses with
      | [ read; write ] ->
          Alcotest.(check bool) "read first" true (read.Access.kind = `Read);
          Alcotest.(check bool) "then write" true (write.Access.kind = `Write);
          Alcotest.(check bool) "same location" true
            (Location.equal read.Access.loc write.Access.loc)
      | l -> Alcotest.failf "expected read+write on id cell, got %d accesses" (List.length l))

let test_subtree_insertion_writes_descendants () =
  with_doc (fun doc log ->
      let parent = elem doc "div" in
      let child = elem doc ~attrs:[ ("id", "inner") ] "span" in
      Dom.append doc ~parent ~child;
      (* Detached insertion emits no presence writes... *)
      let presence_writes l =
        List.filter
          (fun (a : Access.t) ->
            a.Access.kind = `Write
            && match a.Access.loc with Location.Html_elem _ -> true | _ -> false)
          l
      in
      Alcotest.(check int) "no presence writes while detached" 0
        (List.length (presence_writes (log ())));
      (* ...but attaching the subtree root writes every descendant. *)
      Dom.append doc ~parent:(Dom.root doc) ~child:parent;
      let widened = presence_writes (log ()) in
      Alcotest.(check bool) "descendant id indexed" true
        (Dom.get_element_by_id doc "inner" <> None);
      Alcotest.(check bool) "writes for both elements" true (List.length widened >= 2))

let test_remove_unindexes () =
  with_doc (fun doc _log ->
      let div = elem doc ~attrs:[ ("id", "x") ] "div" in
      Dom.append doc ~parent:(Dom.root doc) ~child:div;
      Dom.remove doc div;
      Alcotest.(check bool) "gone" true (Dom.get_element_by_id doc "x" = None);
      Alcotest.(check bool) "detached" false (Dom.is_attached doc div))

let test_insert_before_order () =
  with_doc (fun doc _log ->
      let a = elem doc "a" and b = elem doc "b" and c = elem doc "c" in
      Dom.append doc ~parent:(Dom.root doc) ~child:a;
      Dom.append doc ~parent:(Dom.root doc) ~child:c;
      Dom.insert_before doc ~parent:(Dom.root doc) ~child:b ~before:c;
      let tags = List.map (fun n -> n.Dom.tag) (Dom.document_order doc) in
      Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] tags)

let test_cycle_rejected () =
  with_doc (fun doc _log ->
      let a = elem doc "a" and b = elem doc "b" in
      Dom.append doc ~parent:a ~child:b;
      match Dom.append doc ~parent:b ~child:a with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "cycle accepted")

let test_double_parent_rejected () =
  with_doc (fun doc _log ->
      let a = elem doc "a" and b = elem doc "b" and c = elem doc "c" in
      Dom.append doc ~parent:a ~child:c;
      match Dom.append doc ~parent:b ~child:c with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "node attached twice")

let test_collections () =
  with_doc (fun doc _log ->
      let img = elem doc ~attrs:[ ("src", "i.png") ] "img" in
      let form = elem doc "form" in
      let link = elem doc ~attrs:[ ("href", "#") ] "a" in
      let plain_a = elem doc "a" in
      List.iter
        (fun child -> Dom.append doc ~parent:(Dom.root doc) ~child)
        [ img; form; link; plain_a ];
      Alcotest.(check int) "images" 1 (List.length (Dom.collection doc "images"));
      Alcotest.(check int) "forms" 1 (List.length (Dom.collection doc "forms"));
      Alcotest.(check int) "links (href only)" 1 (List.length (Dom.collection doc "links"));
      Alcotest.(check int) "tag name" 2 (List.length (Dom.get_elements_by_tag_name doc "a")))

let test_idl_form_field_flag () =
  with_doc (fun doc log ->
      let input = elem doc ~attrs:[ ("type", "text") ] "input" in
      Dom.append doc ~parent:(Dom.root doc) ~child:input;
      Dom.set_idl doc input "value" "hello";
      ignore (Dom.get_idl doc input "value");
      let flagged =
        List.filter (fun a -> Access.has_flag a Access.Form_field) (log ())
      in
      Alcotest.(check int) "both idl accesses flagged" 2 (List.length flagged))

let test_idl_reflects_attr () =
  with_doc (fun doc _log ->
      let input = elem doc ~attrs:[ ("value", "init") ] "input" in
      Dom.append doc ~parent:(Dom.root doc) ~child:input;
      Alcotest.(check (option string)) "initial from attr" (Some "init")
        (Dom.get_idl doc input "value");
      Dom.set_idl doc input "value" "typed";
      Alcotest.(check (option string)) "idl wins" (Some "typed")
        (Dom.get_idl doc input "value"))

let test_set_attr_id_moves_index () =
  with_doc (fun doc _log ->
      let div = elem doc ~attrs:[ ("id", "old") ] "div" in
      Dom.append doc ~parent:(Dom.root doc) ~child:div;
      Dom.set_attr doc div "id" "new";
      Alcotest.(check bool) "old gone" true (Dom.get_element_by_id doc "old" = None);
      Alcotest.(check bool) "new present" true (Dom.get_element_by_id doc "new" <> None))

let test_duplicate_id_first_wins () =
  with_doc (fun doc _log ->
      let a = elem doc ~attrs:[ ("id", "dup") ] "div" in
      let b = elem doc ~attrs:[ ("id", "dup") ] "span" in
      Dom.append doc ~parent:(Dom.root doc) ~child:a;
      Dom.append doc ~parent:(Dom.root doc) ~child:b;
      match Dom.get_element_by_id doc "dup" with
      | Some n -> Alcotest.(check string) "first wins" "div" n.Dom.tag
      | None -> Alcotest.fail "lookup failed")

(* Attribute order: the node's short list iterates as the [Hashtbl] it
   replaced did, and keeps doing so once it grows into a table. Names
   repeat and change case; up to 40 distinct ones, past both the list
   limit and a table resize. *)
let gen_attr_ops =
  let open QCheck.Gen in
  let name =
    map2
      (fun i upper -> (if upper then "A" else "a") ^ string_of_int i)
      (int_bound 39) bool
  in
  let op = pair name (string_size ~gen:(char_range 'a' 'c') (int_bound 2)) in
  pair (list_size (int_bound 12) op) (list_size (int_bound 40) op)

let prop_attr_order_matches_hashtbl =
  QCheck.Test.make ~name:"dom: attribute order = Hashtbl order" ~count:500
    (QCheck.make gen_attr_ops) (fun (initial, later) ->
      with_doc (fun doc _log ->
          let n = elem doc ~attrs:initial "div" in
          List.iter (fun (k, v) -> Dom.set_attr doc n k v) later;
          let table = Hashtbl.create 4 in
          List.iter
            (fun (k, v) -> Hashtbl.replace table (String.lowercase_ascii k) v)
            (initial @ later);
          let seen = ref [] in
          Dom.iter_attrs (fun k v -> seen := (k, v) :: !seen) n;
          let expected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
          !seen = expected
          && Hashtbl.fold (fun k v ok -> ok && Dom.get_attr n (String.uppercase_ascii k) = Some v) table true))

(* [is_attached] is a per-node field kept on insert and remove; it must
   agree with walking up to the root after any sequence of moves. *)
let prop_attached_matches_walk =
  QCheck.Test.make ~name:"dom: is_attached = reaches the root" ~count:300
    QCheck.(
      make
        ~print:Print.(list (triple bool int int))
        Gen.(list_size (int_bound 60) (triple bool (int_bound 11) (int_bound 11))))
    (fun moves ->
      with_doc (fun doc _log ->
          let nodes = Array.init 12 (fun i -> elem doc ~attrs:[ ("id", string_of_int (i mod 5)) ] "div") in
          let all = Array.append [| Dom.root doc |] nodes in
          List.iter
            (fun (insert, a, b) ->
              if insert then (
                try Dom.append doc ~parent:all.(a) ~child:nodes.(b) with Invalid_argument _ -> ())
              else Dom.remove doc nodes.(b))
            moves;
          let rec reaches (n : Dom.node) =
            n == Dom.root doc || match n.Dom.parent with Some p -> reaches p | None -> false
          in
          (* Only attached nodes are indexed by id. *)
          Array.for_all (fun n -> Dom.is_attached doc n = reaches n) all
          && List.for_all
               (fun id ->
                 match Dom.get_element_by_id doc id with Some n -> reaches n | None -> true)
               [ "0"; "1"; "2"; "3"; "4" ]))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_attr_order_matches_hashtbl;
    QCheck_alcotest.to_alcotest prop_attached_matches_walk;
    Alcotest.test_case "append and query" `Quick test_append_and_query;
    Alcotest.test_case "miss read flags" `Quick test_miss_read_flags;
    Alcotest.test_case "miss/insert same location" `Quick test_miss_then_insert_same_location;
    Alcotest.test_case "subtree insertion" `Quick test_subtree_insertion_writes_descendants;
    Alcotest.test_case "remove unindexes" `Quick test_remove_unindexes;
    Alcotest.test_case "insert_before order" `Quick test_insert_before_order;
    Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "double parent rejected" `Quick test_double_parent_rejected;
    Alcotest.test_case "collections" `Quick test_collections;
    Alcotest.test_case "idl form-field flag" `Quick test_idl_form_field_flag;
    Alcotest.test_case "idl reflects attr" `Quick test_idl_reflects_attr;
    Alcotest.test_case "set_attr id reindex" `Quick test_set_attr_id_moves_index;
    Alcotest.test_case "duplicate id" `Quick test_duplicate_id_first_wins;
  ]
