(** The happens-before graph (paper §3.3, §5.2.1).

    The browser registers operations and adds the edges mandated by rules
    1-17 as execution proceeds; the race detector asks "can these two
    operations happen concurrently?" ({!chc}). The static predictor is the
    second client: it loads its unit graph into one and lists every
    unordered pair ({!iter_chc_pairs}). The relation queried is the
    transitive closure of the added edges.

    Two query strategies are provided, the two §5.2.1 contrasts:

    - {!Dfs} answers each query with a backward graph traversal, mirroring
      the paper's implementation ("repeated graph traversals contribute to
      the high overhead", §5.2.1);
    - {!Chain_vc} (the default) is the "more efficient vector-clock
      representation" the paper plans (§5.2.1): operations are decomposed
      online into chains (greedily extending a predecessor's chain), and
      each operation keeps a clock mapping chains to the highest position
      that happens-before it. Clocks are sparse — sorted (chain, bound)
      pairs holding only the chains that reach the operation — so a query
      is a binary search and memory grows with the chains that reach each
      operation, not with every chain the page created (a page exploring
      thousands of handlers has thousands of chains).

    Both strategies are exact (a qcheck property asserts they agree); the
    benchmark suite compares their cost.

    The graph relies on edges being added in topological order: an edge
    [a -> b] may only be added while [b] has not yet finished being wired up
    (in practice, [a] was created before [b]). Adding a cycle is therefore
    impossible by construction, but {!add_edge} checks [a <> b]. *)

type t

type strategy = Dfs | Chain_vc

(** [Chain_vc]: the strategy every default in the pipeline uses. *)
val default_strategy : strategy

(** [create ~strategy ()] returns an empty graph ([strategy] defaults to
    {!default_strategy}). *)
val create : ?strategy:strategy -> unit -> t

val strategy : t -> strategy

(** [fresh t kind ~label] registers a new operation and returns its id. *)
val fresh : t -> Op.kind -> label:string -> Op.id

(** [info t id] retrieves the operation's metadata. Raises [Invalid_argument]
    on an unknown id. *)
val info : t -> Op.id -> Op.info

(** [n_ops t] is the number of registered operations. *)
val n_ops : t -> int

(** [n_edges t] is the number of direct edges added. *)
val n_edges : t -> int

(** [add_edge t a b] records that [a] happens-before [b]. Requires [a < b]
    (operations are created in schedule order, so every rule's edge points
    from an older operation to a newer one); raises [Invalid_argument]
    otherwise. Duplicate edges are ignored. *)
val add_edge : t -> Op.id -> Op.id -> unit

(** [happens_before t a b] holds iff [a -> b] is in the transitive closure
    (strict: [happens_before t a a = false]). *)
val happens_before : t -> Op.id -> Op.id -> bool

(** [chc t a b] — Can-Happen-Concurrently: [a <> b] and neither
    happens-before the other (paper §5.1). *)
val chc : t -> Op.id -> Op.id -> bool

(** [iter_chc_pairs t f] calls [f a b] for every pair [a < b] with
    [chc t a b], in increasing [(a, b)] order. Under {!Chain_vc} the pairs
    are read off the clocks: each reported pair costs one heap step, and
    each operation [a] adds two binary searches per chain and one check
    per later chainless operation. Under {!Dfs} all n²/2 pairs are
    tested. *)
val iter_chc_pairs : t -> (Op.id -> Op.id -> unit) -> unit

(** [n_chains t] — chains created so far under {!Chain_vc} (0 under
    {!Dfs}); diagnostics and benchmarks. *)
val n_chains : t -> int

(** [preds t id] / [succs t id] expose direct edges, for tests and
    diagnostics. *)
val preds : t -> Op.id -> Op.id list

val succs : t -> Op.id -> Op.id list

(** [iter_ops f t] visits all operations in id order. *)
val iter_ops : (Op.info -> unit) -> t -> unit

(** [to_dot ?highlight ?highlight_edges t] renders the direct-edge graph
    in Graphviz DOT (operations labelled and colored by kind; ids in
    [highlight] drawn bold red — used to mark a race's endpoints; direct
    edges in [highlight_edges] drawn bold red — used to mark witness
    paths). Duplicate successor entries are deduplicated in the output. *)
val to_dot : ?highlight:Op.id list -> ?highlight_edges:(Op.id * Op.id) list -> t -> string

(** [to_dot_subgraph ?highlight ?highlight_edges ~nodes t] renders only
    the operations in [nodes] (ids outside the graph are ignored) and the
    direct edges between them — full-page graphs are unreadable, so race
    witnesses export just their evidence ops. Highlights as {!to_dot}. *)
val to_dot_subgraph :
  ?highlight:Op.id list -> ?highlight_edges:(Op.id * Op.id) list -> nodes:Op.id list -> t -> string
