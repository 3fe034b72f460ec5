type strategy = Dfs | Closure | Chain_vc

type node = {
  info : Op.info;
  mutable preds : Op.id list;
  mutable succs : Op.id list;
  mutable last_succ : Op.id;  (* most recently added successor; -1 if none *)
  ancestors : Wr_support.Bitset.t option;  (* Some iff strategy = Closure *)
  mutable vc : int array;  (* Chain_vc: sorted (chain, highest reaching index + 1) pairs *)
  mutable chain : int;  (* Chain_vc: -1 while unassigned *)
  mutable chain_idx : int;
}

type t = {
  strategy : strategy;
  mutable nodes : node array;  (* dense array indexed by op id *)
  mutable count : int;
  mutable edges : int;
  edge_set : (Op.id * Op.id, unit) Hashtbl.t;  (* O(1) duplicate-edge check *)
  mutable chain_tops : Op.id array;  (* Chain_vc: last op of each chain *)
  mutable chain_count : int;
}

let default_strategy = Chain_vc

let create ?(strategy = default_strategy) () =
  {
    strategy;
    nodes = [||];
    count = 0;
    edges = 0;
    edge_set = Hashtbl.create 1024;
    chain_tops = Array.make 16 (-1);
    chain_count = 0;
  }

let strategy t = t.strategy

let node t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Hb.Graph: unknown operation id %d" id);
  t.nodes.(id)

let fresh t kind ~label =
  let id = t.count in
  if id >= Array.length t.nodes then begin
    let capacity = max 64 (Array.length t.nodes * 2) in
    let dummy =
      { info = { Op.id = -1; kind = Op.Initial; label = "" };
        preds = []; succs = []; last_succ = -1; ancestors = None; vc = [||]; chain = -1;
        chain_idx = 0 }
    in
    let nodes = Array.make capacity dummy in
    Array.blit t.nodes 0 nodes 0 t.count;
    t.nodes <- nodes
  end;
  let ancestors =
    match t.strategy with
    | Closure -> Some (Wr_support.Bitset.create 64)
    | Dfs | Chain_vc -> None
  in
  t.nodes.(id) <-
    { info = { Op.id; kind; label }; preds = []; succs = []; last_succ = -1; ancestors;
      vc = [||]; chain = -1; chain_idx = 0 };
  t.count <- id + 1;
  id

let info t id = (node t id).info

let n_ops t = t.count

let n_edges t = t.edges

(* --- Closure strategy --------------------------------------------------- *)

(* Closure invariant: if [a] is in ancestors[n] then ancestors[a] is a
   subset of ancestors[n]. [propagate] restores it along successors after a
   new edge lands on a node that already has successors. *)
let rec propagate t a anc_a n =
  let node_n = t.nodes.(n) in
  match node_n.ancestors with
  | None -> ()
  | Some anc_n ->
      if not (Wr_support.Bitset.mem anc_n a) then begin
        Wr_support.Bitset.union_into ~into:anc_n anc_a;
        Wr_support.Bitset.add anc_n a;
        List.iter (propagate t a anc_a) node_n.succs
      end

(* --- Chain-VC strategy ---------------------------------------------------

   The "more efficient vector-clock representation" the paper leaves to
   future work (§5.2.1), realized via online chain decomposition: every
   operation joins the chain of one of its predecessors when that
   predecessor is still the chain's last element, else starts a new chain.
   An operation's clock maps each chain to the highest position on it that
   happens-before the operation, so a reachability query is one lookup.

   Clocks are sparse: [vc] holds only the chains that reach the operation,
   as (chain, bound) pairs flattened into [|c0; b0; c1; b1; ...|] and
   sorted by chain. A page that explores many handlers has many chains,
   but each operation is reached by few of them, so a dense clock indexed
   by chain id would be mostly zeros. Clock arrays are never mutated once
   installed, so an operation whose clock equals its predecessor's shares
   the array. *)

let ensure_chain t x =
  let nx = t.nodes.(x) in
  if nx.chain = -1 then begin
    if t.chain_count = Array.length t.chain_tops then begin
      let tops = Array.make (2 * t.chain_count) (-1) in
      Array.blit t.chain_tops 0 tops 0 t.chain_count;
      t.chain_tops <- tops
    end;
    nx.chain <- t.chain_count;
    nx.chain_idx <- 0;
    t.chain_tops.(t.chain_count) <- x;
    t.chain_count <- t.chain_count + 1
  end

(* [vc_find vc chain] is [chain]'s bound in [vc], 0 when absent. *)
let vc_find vc chain =
  let rec search lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) lsr 1 in
      let c = vc.(2 * mid) in
      if c = chain then vc.((2 * mid) + 1)
      else if c < chain then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length vc / 2)

(* Pointwise max of two sparse clocks. Returns [a] itself when [b] adds
   nothing and [b] itself when [b] covers [a], so callers detect "no
   change" by physical equality and share arrays instead of copying. *)
let vc_join a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  let b_grows = ref false and a_exceeds = ref false in
  while !i < la || !j < lb do
    incr n;
    if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
      a_exceeds := true;
      i := !i + 2
    end
    else if !i >= la || b.(!j) < a.(!i) then begin
      b_grows := true;
      j := !j + 2
    end
    else begin
      let va = a.(!i + 1) and vb = b.(!j + 1) in
      if vb > va then b_grows := true else if va > vb then a_exceeds := true;
      i := !i + 2;
      j := !j + 2
    end
  done;
  if not !b_grows then a
  else if not !a_exceeds then b
  else begin
    let out = Array.make (2 * !n) 0 in
    let emit k c v =
      out.(k) <- c;
      out.(k + 1) <- v
    in
    i := 0;
    j := 0;
    for k = 0 to !n - 1 do
      if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
        emit (2 * k) a.(!i) a.(!i + 1);
        i := !i + 2
      end
      else if !i >= la || b.(!j) < a.(!i) then begin
        emit (2 * k) b.(!j) b.(!j + 1);
        j := !j + 2
      end
      else begin
        emit (2 * k) a.(!i) (max a.(!i + 1) b.(!j + 1));
        i := !i + 2;
        j := !j + 2
      end
    done;
    out
  end

(* Pointwise max of [src] plus the single entry (chain, bound) into
   [dst.vc]; returns true when anything grew. *)
let merge_vc dst src ~chain ~bound =
  let vc = vc_join dst.vc src in
  let vc = if chain >= 0 then vc_join vc [| chain; bound |] else vc in
  if vc == dst.vc then false
  else begin
    dst.vc <- vc;
    true
  end

let rec vc_propagate t src ~chain ~bound n =
  let nn = t.nodes.(n) in
  if merge_vc nn src ~chain ~bound then
    List.iter (vc_propagate t nn.vc ~chain:(-1) ~bound:0) nn.succs

(* --- Edge insertion ------------------------------------------------------ *)

let add_edge t a b =
  if a >= b then
    invalid_arg
      (Printf.sprintf
         "Hb.Graph.add_edge: %d -> %d violates topological construction (edges must point \
          from an older operation to a newer one)"
         a b);
  let na = node t a and nb = node t b in
  (* Duplicate insertions are common (every access-pair rule re-derives the
     same edge) and used to pay O(out-degree) in [List.mem]; the last-succ
     slot catches the consecutive-repeat pattern for free and the edge set
     answers the rest in O(1), so dense pages no longer go quadratic. *)
  if na.last_succ <> b && not (Hashtbl.mem t.edge_set (a, b)) then begin
    na.last_succ <- b;
    Hashtbl.add t.edge_set (a, b) ();
    na.succs <- b :: na.succs;
    nb.preds <- a :: nb.preds;
    t.edges <- t.edges + 1;
    match t.strategy with
    | Dfs -> ()
    | Closure -> (
        match na.ancestors with
        | Some anc_a -> propagate t a anc_a b
        | None -> ())
    | Chain_vc ->
        ensure_chain t a;
        (* Extend a's chain with b when a is still its tip. *)
        if nb.chain = -1 && t.chain_tops.(na.chain) = a then begin
          nb.chain <- na.chain;
          nb.chain_idx <- na.chain_idx + 1;
          t.chain_tops.(na.chain) <- b
        end;
        vc_propagate t na.vc ~chain:na.chain ~bound:(na.chain_idx + 1) b
  end

(* --- Queries -------------------------------------------------------------- *)

let happens_before_dfs t a b =
  (* Backward traversal from [b]: does any path reach [a]? Ids decrease
     along pred edges, so nodes below [a] are pruned. *)
  let visited = Wr_support.Bitset.create t.count in
  let rec search stack =
    match stack with
    | [] -> false
    | n :: rest ->
        if n = a then true
        else if n < a || Wr_support.Bitset.mem visited n then search rest
        else begin
          Wr_support.Bitset.add visited n;
          search (List.rev_append t.nodes.(n).preds rest)
        end
  in
  search [ b ]

let happens_before t a b =
  if a = b then false
  else begin
    let na = node t a and nb = node t b in
    match t.strategy with
    | Closure -> (
        match nb.ancestors with
        | Some anc -> Wr_support.Bitset.mem anc a
        | None -> false)
    | Chain_vc -> na.chain >= 0 && vc_find nb.vc na.chain >= na.chain_idx + 1
    | Dfs -> happens_before_dfs t a b
  end

let chc t a b = a <> b && (not (happens_before t a b)) && not (happens_before t b a)

let preds t id = (node t id).preds

let succs t id = (node t id).succs

let n_chains t = t.chain_count

let iter_ops f t =
  for i = 0 to t.count - 1 do
    f t.nodes.(i).info
  done

let dot_color = function
  | Op.Initial -> "gray"
  | Op.Parse -> "lightblue"
  | Op.Script -> "palegreen"
  | Op.Timeout_callback | Op.Interval_callback _ -> "khaki"
  | Op.Dispatch_anchor _ -> "plum"
  | Op.Handler _ -> "lightpink"
  | Op.User -> "orange"
  | Op.Segment _ -> "lightcyan"

let dot_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* Shared renderer behind [to_dot] (all nodes) and [to_dot_subgraph] (a
   selection). [include_node] restricts both the node list and the edges;
   [highlight_edges] render bold red (witness paths). Successor lists are
   deduplicated in the output so a node never prints the same edge twice. *)
let render_dot ~include_node ~highlight ~highlight_edges t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph happens_before {\n  rankdir=TB;\n  node [style=filled];\n";
  iter_ops
    (fun info ->
      if include_node info.Op.id then begin
        let extra =
          if List.mem info.Op.id highlight then ", color=red, penwidth=3" else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"#%d %s\", fillcolor=%s%s];\n" info.Op.id info.Op.id
             (dot_escape info.Op.label)
             (dot_color info.Op.kind) extra)
      end)
    t;
  for i = 0 to t.count - 1 do
    if include_node i then
      List.iter
        (fun succ ->
          if include_node succ then
            let attrs =
              if List.mem (i, succ) highlight_edges then
                " [color=red, penwidth=2.5, style=bold]"
              else ""
            in
            Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" i succ attrs))
        (List.sort_uniq compare t.nodes.(i).succs)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_dot ?(highlight = []) ?(highlight_edges = []) t =
  render_dot ~include_node:(fun _ -> true) ~highlight ~highlight_edges t

let to_dot_subgraph ?(highlight = []) ?(highlight_edges = []) ~nodes t =
  let wanted = Wr_support.Bitset.create (max 1 t.count) in
  List.iter
    (fun id -> if id >= 0 && id < t.count then Wr_support.Bitset.add wanted id)
    nodes;
  render_dot ~include_node:(Wr_support.Bitset.mem wanted) ~highlight ~highlight_edges t
