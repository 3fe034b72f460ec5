module Op = Wr_hb.Op
module Graph = Wr_hb.Graph
module Race = Wr_detect.Race
module Bitset = Wr_support.Bitset
module Json = Wr_support.Json

type witness = {
  race : Race.t;
  older : Op.id;
  newer : Op.id;
  older_provenance : Op.info list;
  newer_provenance : Op.info list;
  common_ancestor : Op.id option;
  frontier : Op.id list;
}

(* The first edge added to an operation is the one recorded when it was
   scheduled (parse chaining, timer registration, dispatch anchoring);
   later edges are ordering constraints. Predecessors are consed as edges
   arrive, so the creation edge sits at the tail of the list. *)
let creation_pred preds =
  match preds with [] -> None | _ :: _ -> Some (List.nth preds (List.length preds - 1))

let provenance g op =
  let rec up acc op =
    let info = Graph.info g op in
    match creation_pred (Graph.preds g op) with
    | None -> info :: acc
    | Some p -> up (info :: acc) p
  in
  up [] op

let nearest_common_ancestor g a b =
  (* An ancestor of both has an id below both (edges point old -> new);
     ids order creation, so the first hit scanning downward is nearest. *)
  let rec scan c =
    if c < 0 then None
    else if Graph.happens_before g c a && Graph.happens_before g c b then Some c
    else scan (c - 1)
  in
  scan (min a b - 1)

let frontier g ~older ~newer =
  if older >= newer then
    invalid_arg
      (Printf.sprintf "Wr_explain.frontier: need older < newer, got %d >= %d" older newer);
  let seen = Bitset.create (Graph.n_ops g) in
  let rec walk stack =
    match stack with
    | [] -> ()
    | n :: rest ->
        if n < older || Bitset.mem seen n then walk rest
        else begin
          Bitset.add seen n;
          walk (List.rev_append (Graph.preds g n) rest)
        end
  in
  walk [ newer ];
  let out = ref [] in
  Bitset.iter (fun n -> out := n :: !out) seen;
  List.rev !out

let of_race g (race : Race.t) =
  let a = race.Race.first.Wr_mem.Access.op and b = race.Race.second.Wr_mem.Access.op in
  let older = min a b and newer = max a b in
  {
    race;
    older;
    newer;
    older_provenance = provenance g older;
    newer_provenance = provenance g newer;
    common_ancestor = nearest_common_ancestor g older newer;
    frontier = frontier g ~older ~newer;
  }

let of_races g races = List.map (of_race g) races

(* --- Certificate check ---------------------------------------------------

   Soundness of the frontier certificate: suppose a path
   older = p0 -> p1 -> ... -> pk = newer existed. Edges only point from
   older ids to newer ids, so every pi >= older. The set contains pk and
   is closed under predecessors >= older, so by downward induction p0 =
   older is a member — contradicting the membership checks. Extraction
   yields exactly the backward-reachable set, which satisfies closure by
   construction; any forged set either breaks closure or, when the pair
   is truly ordered, is forced to contain [older]. *)

let valid_id g id = id >= 0 && id < Graph.n_ops g

let check_frontier g ~older ~newer frontier =
  valid_id g older && valid_id g newer && older < newer
  &&
  let set = Bitset.create (Graph.n_ops g) in
  List.for_all
    (fun n ->
      if valid_id g n && n >= older && n <= newer then begin
        Bitset.add set n;
        true
      end
      else false)
    frontier
  && Bitset.mem set newer
  && (not (Bitset.mem set older))
  && List.for_all
       (fun n ->
         List.for_all
           (fun p -> p < older || Bitset.mem set p)
           (Graph.preds g n))
       frontier

let check_provenance g chain ~target =
  match chain with
  | [] -> false
  | root :: _ ->
      valid_id g root.Op.id
      && Graph.preds g root.Op.id = []
      && (match List.rev chain with last :: _ -> last.Op.id = target | [] -> false)
      && fst
           (List.fold_left
              (fun (ok, prev) (step : Op.info) ->
                match prev with
                | None -> (ok && valid_id g step.Op.id, Some step.Op.id)
                | Some p ->
                    ( ok && valid_id g step.Op.id && List.mem p (Graph.preds g step.Op.id),
                      Some step.Op.id ))
              (true, None) chain)

let verify g w =
  check_frontier g ~older:w.older ~newer:w.newer w.frontier
  && check_provenance g w.older_provenance ~target:w.older
  && check_provenance g w.newer_provenance ~target:w.newer
  &&
  match w.common_ancestor with
  | None -> true
  | Some c ->
      valid_id g c && Graph.happens_before g c w.older && Graph.happens_before g c w.newer

(* --- Rendering ----------------------------------------------------------- *)

let chain_edges chain =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a.Op.id, b.Op.id) :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs chain

let evidence_nodes w =
  List.sort_uniq compare
    ((match w.common_ancestor with None -> [] | Some c -> [ c ])
    @ List.map (fun (i : Op.info) -> i.Op.id) w.older_provenance
    @ List.map (fun (i : Op.info) -> i.Op.id) w.newer_provenance
    @ w.frontier)

let dot_many g ws =
  let nodes = List.concat_map evidence_nodes ws in
  let highlight = List.concat_map (fun w -> [ w.older; w.newer ]) ws in
  let highlight_edges =
    List.concat_map
      (fun w -> chain_edges w.older_provenance @ chain_edges w.newer_provenance)
      ws
  in
  Graph.to_dot_subgraph ~highlight ~highlight_edges ~nodes g

let dot g w = dot_many g [ w ]

let pp_chain ppf chain =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ -> ")
    (fun ppf (i : Op.info) -> Format.fprintf ppf "#%d[%s]" i.Op.id (Op.kind_name i.Op.kind))
    ppf chain

let pp g ppf w =
  let op_line ppf id = Op.pp ppf (Graph.info g id) in
  Format.fprintf ppf "@[<v 2>witness for %s race on %a:@," (Race.type_name w.race.Race.race_type)
    Wr_mem.Location.pp w.race.Race.loc;
  Format.fprintf ppf "older access: %a@," op_line w.older;
  Format.fprintf ppf "  provenance: @[<hov>%a@]@," pp_chain w.older_provenance;
  Format.fprintf ppf "newer access: %a@," op_line w.newer;
  Format.fprintf ppf "  provenance: @[<hov>%a@]@," pp_chain w.newer_provenance;
  (match w.common_ancestor with
  | Some c -> Format.fprintf ppf "forked after common ancestor: %a@," op_line c
  | None -> Format.fprintf ppf "no common ancestor (disconnected histories)@,");
  Format.fprintf ppf "no-path frontier (#%d cannot reach #%d): {%s} (%d ops)@," w.older
    w.newer
    (String.concat ", " (List.map (Printf.sprintf "#%d") w.frontier))
    (List.length w.frontier);
  Format.fprintf ppf "certificate: %s@]" (if verify g w then "PASS" else "FAIL")

(* --- JSON ------------------------------------------------------------------

   One code path encodes every witness: [to_json] feeds it uncached op and
   chain bytes, [encoder] cached ones. An op is named by its graph id, so
   its bytes come from [Graph.info], never from the chain element. *)

let op_bytes g id =
  let i = Graph.info g id in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int i.Op.id);
         ("kind", Json.String (Op.kind_name i.Op.kind));
         ("label", Json.String i.Op.label);
       ])

let chain_json op chain =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  List.iteri
    (fun k (i : Op.info) ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (op i.Op.id))
    chain;
  Buffer.add_char buf ']';
  Json.Raw (Buffer.contents buf)

(* [chain target c] encodes the provenance chain [c], which ends at [target]. *)
let witness_json g ~op ~chain w =
  Json.Obj
    [
      Wr_support.Schema.tag;
      ("older_op", Json.Int w.older);
      ("newer_op", Json.Int w.newer);
      ("older_provenance", chain w.older w.older_provenance);
      ("newer_provenance", chain w.newer w.newer_provenance);
      ( "common_ancestor",
        match w.common_ancestor with None -> Json.Null | Some c -> Json.Raw (op c) );
      ("frontier", Json.List (List.map (fun n -> Json.Int n) w.frontier));
      ("frontier_size", Json.Int (List.length w.frontier));
      ("certified", Json.Bool (verify g w));
    ]

let to_json g w =
  let op = op_bytes g in
  witness_json g ~op ~chain:(fun _ c -> chain_json op c) w

(* The witness JSON holds nothing from the race but its op pair, so it is
   derived, certified and encoded once per distinct [(older, newer)]. A
   chain is cached by its endpoint: the encoder derives every witness
   itself, so the chain ending at [op] is always [provenance g op]. The
   caches are allocated on the first race; race-free reports skip them. *)
let encoder g =
  let cache =
    lazy
      (let n = Graph.n_ops g in
       let ops = Array.make n "" and chains = Array.make n None in
       let op id =
         match ops.(id) with
         | "" ->
             let bytes = op_bytes g id in
             ops.(id) <- bytes;
             bytes
         | bytes -> bytes
       in
       let chain target c =
         match chains.(target) with
         | Some json -> json
         | None ->
             let json = chain_json op c in
             chains.(target) <- Some json;
             json
       in
       (n, Hashtbl.create 64, witness_json g ~op ~chain))
  in
  fun (race : Race.t) ->
    let n, pairs, encode = Lazy.force cache in
    let a = race.Race.first.Wr_mem.Access.op and b = race.Race.second.Wr_mem.Access.op in
    let key = (min a b * n) + max a b in
    match Hashtbl.find_opt pairs key with
    | Some json -> json
    | None ->
        let json = encode (of_race g race) in
        Hashtbl.add pairs key json;
        json
