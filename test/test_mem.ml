(* Unit and property tests for the logical memory model (Wr_mem). *)

open Wr_mem

let key = Location.no_key

let var cell = Location.Js_var { cell; name = "v"; key }

let node uid = Location.Html_elem (Location.Node { uid; key })

let idl ~doc ~id = Location.Html_elem (Location.Id { doc; id; key })

let coll ~doc ~name = Location.Html_elem (Location.Collection { doc; name; key })

let handler ?(slot = Location.Attr) ~target ~event () =
  Location.Event_handler { target; event; slot; key }

let test_conflict_policy_matrix () =
  let ww loc = Location.conflict_relevant loc ~kind:`Write ~kind':`Write in
  let rw loc = Location.conflict_relevant loc ~kind:`Read ~kind':`Write in
  (* Ordinary locations admit all conflicts. *)
  Alcotest.(check bool) "var ww" true (ww (var 1));
  Alcotest.(check bool) "node ww" true (ww (node 2));
  Alcotest.(check bool) "id ww" true (ww (idl ~doc:0 ~id:"x"));
  Alcotest.(check bool) "attr slot ww" true (ww (handler ~target:1 ~event:"load" ()));
  Alcotest.(check bool) "listener ww" true
    (ww (handler ~slot:(Location.Listener 9) ~target:1 ~event:"load" ()));
  (* Containers and collections tolerate concurrent writes... *)
  Alcotest.(check bool) "container ww suppressed" false
    (ww (handler ~slot:Location.Container ~target:1 ~event:"load" ()));
  Alcotest.(check bool) "collection ww suppressed" false (ww (coll ~doc:0 ~name:"tag:div"));
  (* ...but still conflict read-vs-write. *)
  Alcotest.(check bool) "container rw" true
    (rw (handler ~slot:Location.Container ~target:1 ~event:"load" ()));
  Alcotest.(check bool) "collection rw" true (rw (coll ~doc:0 ~name:"tag:div"))

let test_report_key_canonicalization () =
  let a = handler ~slot:Location.Attr ~target:5 ~event:"load" () in
  let l = handler ~slot:(Location.Listener 3) ~target:5 ~event:"load" () in
  let c = handler ~slot:Location.Container ~target:5 ~event:"load" () in
  Alcotest.(check bool) "attr ~ container" true
    (Location.equal (Location.report_key a) (Location.report_key c));
  Alcotest.(check bool) "listener ~ container" true
    (Location.equal (Location.report_key l) (Location.report_key c));
  let other_event = handler ~target:5 ~event:"click" () in
  Alcotest.(check bool) "different events distinct" false
    (Location.equal (Location.report_key a) (Location.report_key other_event));
  (* Non-handler locations are their own keys. *)
  Alcotest.(check bool) "var fixed" true
    (Location.equal (Location.report_key (var 3)) (var 3));
  Alcotest.(check bool) "id fixed" true
    (Location.equal (Location.report_key (idl ~doc:1 ~id:"z")) (idl ~doc:1 ~id:"z"))

let test_js_var_identity_by_cell () =
  let a = Location.Js_var { cell = 7; name = "x"; key } in
  let b = Location.Js_var { cell = 7; name = "renamed"; key } in
  let c = Location.Js_var { cell = 8; name = "x"; key } in
  Alcotest.(check bool) "same cell equal" true (Location.equal a b);
  Alcotest.(check bool) "same hash" true (Location.hash a = Location.hash b);
  Alcotest.(check bool) "different cell" false (Location.equal a c)

let gen_location =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> var c) (int_bound 100);
        map (fun u -> node u) (int_bound 100);
        map2 (fun d i -> idl ~doc:d ~id:("id" ^ string_of_int i)) (int_bound 3) (int_bound 20);
        map2
          (fun d i -> coll ~doc:d ~name:("tag:" ^ string_of_int i))
          (int_bound 3) (int_bound 10);
        map3
          (fun t e s ->
            let slot =
              match s mod 3 with
              | 0 -> Location.Attr
              | 1 -> Location.Container
              | _ -> Location.Listener s
            in
            Location.Event_handler
              { target = t; event = (if e then "load" else "click"); slot; key })
          (int_bound 50) bool (int_bound 20);
      ])

let prop_equal_hash_consistent =
  QCheck.Test.make ~name:"mem: equal locations hash equally" ~count:300
    (QCheck.make (QCheck.Gen.pair gen_location gen_location)) (fun (a, b) ->
      (not (Location.equal a b)) || Location.hash a = Location.hash b)

(* A physically distinct copy of [loc]: fresh strings, a [Js_var]
   renamed, since a cell's identity is its id alone, and another key,
   which is no part of identity either. *)
let copy_location loc =
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  let key = Location.key loc + 1000 in
  match loc with
  | Location.Js_var { cell; name; _ } -> Location.Js_var { cell; name = name ^ "'"; key }
  | Location.Html_elem (Location.Node { uid; _ }) -> Location.Html_elem (Location.Node { uid; key })
  | Location.Html_elem (Location.Id { doc; id; _ }) ->
      Location.Html_elem (Location.Id { doc; id = fresh id; key })
  | Location.Html_elem (Location.Collection { doc; name; _ }) ->
      Location.Html_elem (Location.Collection { doc; name = fresh name; key })
  | Location.Event_handler { target; event; slot; _ } ->
      let slot =
        match slot with
        | Location.Listener u -> Location.Listener u
        | Location.Attr -> Location.Attr
        | Location.Container -> Location.Container
      in
      Location.Event_handler { target; event = fresh event; slot; key }

let prop_copies_equal_and_hash_equally =
  QCheck.Test.make ~name:"mem: equal copies hash equally, every constructor" ~count:500
    (QCheck.make gen_location) (fun a ->
      let b = copy_location a in
      a != b && Location.equal a b && Location.hash a = Location.hash b)

let prop_report_key_idempotent =
  QCheck.Test.make ~name:"mem: report_key is idempotent" ~count:300
    (QCheck.make gen_location) (fun loc ->
      Location.equal
        (Location.report_key (Location.report_key loc))
        (Location.report_key loc))

let prop_tbl_respects_equality =
  QCheck.Test.make ~name:"mem: Tbl lookups follow equal" ~count:300
    (QCheck.make (QCheck.Gen.small_list gen_location)) (fun locs ->
      let tbl = Location.Tbl.create 16 in
      List.iteri (fun i loc -> Location.Tbl.replace tbl loc i) locs;
      List.for_all (fun loc -> Location.Tbl.mem tbl loc) locs)

(* [Keys.intern] over a random stream, copies mixed in: equal keys iff
   equal locations, and the keys are 0 .. n-1 for n distinct locations. *)
let prop_keys_intern_dense =
  QCheck.Test.make ~name:"mem: Keys.intern keys equal iff locations equal, densely"
    ~count:300
    (QCheck.make QCheck.Gen.(small_list (pair gen_location bool)))
    (fun stream ->
      let keys = Location.Keys.create () in
      let interned =
        List.map
          (fun (loc, copy) ->
            let loc = if copy then copy_location loc else loc in
            Location.Keys.intern keys loc)
          stream
      in
      let distinct = List.sort_uniq compare (List.map Location.key interned) in
      distinct = List.init (List.length distinct) Fun.id
      && List.for_all
           (fun a ->
             List.for_all
               (fun b -> Location.equal a b = (Location.key a = Location.key b))
               interned)
           interned)

let test_access_flags () =
  let a = { Access.loc = var 1; kind = `Read; op = 3; flags = []; context = "" } in
  Alcotest.(check bool) "no flags" false (Access.has_flag a Access.Form_field);
  let a = Access.add_flag a Access.Form_field in
  Alcotest.(check bool) "added" true (Access.has_flag a Access.Form_field);
  let a' = Access.add_flag a Access.Form_field in
  Alcotest.(check int) "idempotent" (List.length a.Access.flags) (List.length a'.Access.flags)

let test_instr_emit_carries_context () =
  let got = ref [] in
  let base = Instr.null () in
  let instr = { base with Instr.sink =
        (fun loc kind op flags context ->
          got := { Access.loc; kind; op; flags; context } :: !got) } in
  instr.Instr.op <- 42;
  instr.Instr.context <- "parse <div>";
  Instr.emit instr (var 1) `Write;
  match !got with
  | [ a ] ->
      Alcotest.(check int) "op" 42 a.Access.op;
      Alcotest.(check string) "context" "parse <div>" a.Access.context
  | _ -> Alcotest.fail "expected one access"

let suite =
  [
    Alcotest.test_case "conflict policy matrix" `Quick test_conflict_policy_matrix;
    Alcotest.test_case "report_key canonicalization" `Quick test_report_key_canonicalization;
    Alcotest.test_case "js-var identity" `Quick test_js_var_identity_by_cell;
    QCheck_alcotest.to_alcotest prop_equal_hash_consistent;
    QCheck_alcotest.to_alcotest prop_copies_equal_and_hash_equally;
    QCheck_alcotest.to_alcotest prop_report_key_idempotent;
    QCheck_alcotest.to_alcotest prop_tbl_respects_equality;
    QCheck_alcotest.to_alcotest prop_keys_intern_dense;
    Alcotest.test_case "access flags" `Quick test_access_flags;
    Alcotest.test_case "instr context" `Quick test_instr_emit_carries_context;
  ]
