type strategy = Dfs | Chain_vc

(* An edge's key is one int, [a lsl 31 lor b]: op ids stay below 2^31,
   so keys are distinct, and a lookup allocates nothing. *)
module Edge_set = Hashtbl.Make (struct
  type t = int

  let equal (a : t) b = a = b
  let hash = Wr_support.Hash.mix
end)

let edge_key a b =
  if b >= 1 lsl 31 then invalid_arg "Hb.Graph: operation id beyond 2^31";
  (a lsl 31) lor b

type node = {
  info : Op.info;
  mutable preds : Op.id list;
  mutable succs : Op.id list;
  mutable last_succ : Op.id;  (* most recently added successor; -1 if none *)
  mutable vc : int array;  (* Chain_vc: sorted (chain, highest reaching index + 1) pairs *)
  mutable chain : int;  (* Chain_vc: -1 while unassigned *)
  mutable chain_idx : int;
}

type t = {
  strategy : strategy;
  mutable nodes : node array;  (* dense array indexed by op id *)
  mutable count : int;
  mutable edges : int;
  edge_set : unit Edge_set.t;  (* O(1) duplicate-edge check *)
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
    edge_set = Edge_set.create 1024;
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
        preds = []; succs = []; last_succ = -1; vc = [||]; chain = -1; chain_idx = 0 }
    in
    let nodes = Array.make capacity dummy in
    Array.blit t.nodes 0 nodes 0 t.count;
    t.nodes <- nodes
  end;
  t.nodes.(id) <-
    { info = { Op.id; kind; label }; preds = []; succs = []; last_succ = -1; vc = [||];
      chain = -1; chain_idx = 0 };
  t.count <- id + 1;
  id

let info t id = (node t id).info

let n_ops t = t.count

let n_edges t = t.edges

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

(* [vc_find vc chain] is [chain]'s bound in [vc], 0 when absent. Every
   detector CHC query runs it, so the search is a top-level function: a
   local closure over [vc] and [chain] would allocate on each call. *)
let rec vc_search vc chain lo hi =
  if lo >= hi then 0
  else
    let mid = (lo + hi) lsr 1 in
    let c = vc.(2 * mid) in
    if c = chain then vc.((2 * mid) + 1)
    else if c < chain then vc_search vc chain (mid + 1) hi
    else vc_search vc chain lo mid

let vc_find vc chain = vc_search vc chain 0 (Array.length vc / 2)

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

(* [vc_join a [| chain; bound |]], without building the one-entry clock:
   [a] itself when its entry for [chain] already reaches [bound]. *)
let vc_join_entry a ~chain ~bound =
  let la = Array.length a in
  let i = ref 0 in
  while !i < la && a.(!i) < chain do
    i := !i + 2
  done;
  let i = !i in
  if i < la && a.(i) = chain then
    if a.(i + 1) >= bound then a
    else begin
      let out = Array.copy a in
      out.(i + 1) <- bound;
      out
    end
  else begin
    let out = Array.make (la + 2) chain in
    Array.blit a 0 out 0 i;
    out.(i + 1) <- bound;
    Array.blit a i out (i + 2) (la - i);
    out
  end

(* Pointwise max of [src] plus the single entry (chain, bound) into
   [dst.vc]; returns true when anything grew. *)
let merge_vc dst src ~chain ~bound =
  let vc = vc_join dst.vc src in
  let vc = if chain >= 0 then vc_join_entry vc ~chain ~bound else vc in
  if vc == dst.vc then false
  else begin
    dst.vc <- vc;
    true
  end

(* The successors are walked by direct recursion: a partial application
   handed to [List.iter] would allocate a closure per propagation. *)
let rec vc_propagate t src ~chain ~bound n =
  let nn = t.nodes.(n) in
  if merge_vc nn src ~chain ~bound then propagate_succs t nn.vc nn.succs

and propagate_succs t vc = function
  | [] -> ()
  | s :: rest ->
      vc_propagate t vc ~chain:(-1) ~bound:0 s;
      propagate_succs t vc rest

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
  let key = edge_key a b in
  if na.last_succ <> b && not (Edge_set.mem t.edge_set key) then begin
    na.last_succ <- b;
    Edge_set.add t.edge_set key ();
    na.succs <- b :: na.succs;
    nb.preds <- a :: nb.preds;
    t.edges <- t.edges + 1;
    match t.strategy with
    | Dfs -> ()
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
    | Chain_vc -> na.chain >= 0 && vc_find nb.vc na.chain >= na.chain_idx + 1
    | Dfs -> happens_before_dfs t a b
  end

let chc t a b = a <> b && (not (happens_before t a b)) && not (happens_before t b a)

(* --- Unordered pairs -------------------------------------------------- *)

(* The least index in [lo, hi) where the monotone predicate [p] holds, or
   [hi]. *)
let rec first_from lo hi p =
  if lo >= hi then hi
  else
    let mid = (lo + hi) lsr 1 in
    if p mid then first_from lo mid p else first_from (mid + 1) hi p

type run = { ids : Op.id array; mutable pos : int; hi : int }

(* Calls [f] on [ids.(pos)], ..., [ids.(hi - 1)] of every run, in
   increasing order: a k-way merge through a binary min-heap. *)
let merge_runs runs f =
  let heap = Array.of_list runs and size = ref (List.length runs) in
  let key i = heap.(i).ids.(heap.(i).pos) in
  let rec sift i =
    let l = (2 * i) + 1 in
    let m = if l + 1 < !size && key (l + 1) < key l then l + 1 else l in
    if l < !size && key m < key i then begin
      let r = heap.(i) in
      heap.(i) <- heap.(m);
      heap.(m) <- r;
      sift m
    end
  in
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  while !size > 0 do
    let r = heap.(0) in
    f r.ids.(r.pos);
    r.pos <- r.pos + 1;
    if r.pos = r.hi then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift 0
  done

(* Under Chain_vc the pairs come from the clocks. Ids grow along a chain
   and the descendants of [a] on a chain are a suffix of it, so the ops
   [b > a] unordered with [a] form one run per chain, found by two binary
   searches. Ops without a chain have no successors (every edge source
   gets one), so each is unordered with [a] unless [a] reaches it. *)
let iter_chc_pairs t f =
  match t.strategy with
  | Dfs ->
      for a = 0 to t.count - 1 do
        for b = a + 1 to t.count - 1 do
          if chc t a b then f a b
        done
      done
  | Chain_vc ->
      let members =
        Array.init t.chain_count (fun c ->
            Array.make (t.nodes.(t.chain_tops.(c)).chain_idx + 1) 0)
      in
      let sinks = ref [] in
      for id = t.count - 1 downto 0 do
        let n = t.nodes.(id) in
        if n.chain >= 0 then members.(n.chain).(n.chain_idx) <- id else sinks := id :: !sinks
      done;
      let sinks = Array.of_list !sinks in
      let n_sinks = Array.length sinks in
      let unordered = Array.make n_sinks 0 in
      for a = 0 to t.count - 1 do
        let na = t.nodes.(a) in
        let reached b = na.chain >= 0 && vc_find t.nodes.(b).vc na.chain > na.chain_idx in
        let k = ref 0 in
        for i = first_from 0 n_sinks (fun i -> sinks.(i) > a) to n_sinks - 1 do
          if not (reached sinks.(i)) then begin
            unordered.(!k) <- sinks.(i);
            incr k
          end
        done;
        let runs = ref (if !k > 0 then [ { ids = unordered; pos = 0; hi = !k } ] else []) in
        Array.iter
          (fun ids ->
            let len = Array.length ids in
            let lo = first_from 0 len (fun p -> ids.(p) > a) in
            let hi = first_from lo len (fun p -> reached ids.(p)) in
            if lo < hi then runs := { ids; pos = lo; hi } :: !runs)
          members;
        merge_runs !runs (f a)
      done

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
