(** Directed acyclic task graphs (the macro-dataflow application model).

    A graph [G = (V, E, w, data)] carries a non-negative computation cost
    [w(v)] per task and a non-negative communication volume [data(e)] per
    precedence edge, exactly as in §2.1 of the paper.  Graphs are immutable
    once built; adjacency is stored in CSR form so the schedulers can walk
    predecessor/successor edges without allocation. *)

type t

type edge = { id : int; src : int; dst : int; data : float }

(** [create ?name ~weights ~edges ()] builds and validates a graph.
    [edges] are [(src, dst, data)] triples.
    @raise Invalid_argument on: negative weight or data, out-of-range
    endpoint, self-loop, duplicate edge, or a cycle. *)
val create :
  ?name:string -> weights:float array -> edges:(int * int * float) list -> unit -> t

(** [of_arrays ?name ~weights ~edge_srcs ~edge_dsts ~edge_datas ()] builds the
    same validated graph from parallel edge arrays, taking ownership of all
    four arrays (callers must not mutate them afterwards).  This is the
    constructor the large-instance generators use: no intermediate edge
    lists, so a 10⁶-task graph costs only its CSR footprint.
    @raise Invalid_argument as {!create}, plus on edge-array length
    mismatch. *)
val of_arrays :
  ?name:string ->
  weights:float array ->
  edge_srcs:int array ->
  edge_dsts:int array ->
  edge_datas:float array ->
  unit ->
  t

val name : t -> string
val n_tasks : t -> int
val n_edges : t -> int
val weight : t -> int -> float

(** Sum of all task weights (the sequential work [W]). *)
val total_weight : t -> float

val edge : t -> int -> edge
val edge_src : t -> int -> int
val edge_dst : t -> int -> int
val edge_data : t -> int -> float

(** [find_edge g ~src ~dst] is the connecting edge, if any. *)
val find_edge : t -> src:int -> dst:int -> edge option

val in_degree : t -> int -> int
val out_degree : t -> int -> int

(** Edge-id folds, allocation-free; the order is deterministic (edge
    insertion order). *)
val fold_pred_edges : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val fold_succ_edges : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
val iter_pred_edges : t -> int -> f:(int -> unit) -> unit
val iter_succ_edges : t -> int -> f:(int -> unit) -> unit

(** The successor CSR range, for loops that must not allocate a closure:
    the successor edges of [v] are [succ_edge g i] for [i] from
    [succ_first g v] to [succ_first g (v + 1) - 1], in the order of
    {!iter_succ_edges}. *)
val succ_first : t -> int -> int

val succ_edge : t -> int -> int

(** The predecessor CSR range, likewise: the predecessor edges of [v]
    are [pred_edge g i] for [i] from [pred_first g v] to
    [pred_first g (v + 1) - 1], in the order of {!iter_pred_edges}. *)
val pred_first : t -> int -> int

val pred_edge : t -> int -> int

(** Predecessor/successor task lists (allocating; for tests and tools). *)
val preds : t -> int -> int list

val succs : t -> int -> int list

(** Tasks with no predecessors / no successors, ascending. *)
val entry_tasks : t -> int list

val exit_tasks : t -> int list

(** A topological order (deterministic: Kahn's algorithm with a min-heap on
    task id). *)
val topological_order : t -> int array

(** [edges g] lists all edges in id order. *)
val edges : t -> edge list

(** [with_data g ~f] replaces each edge's volume by [f edge]; used to apply
    the paper's communication-to-computation ratio [data(e) = c * w(src e)]
    (§5.2). *)
val with_data : t -> f:(edge -> float) -> t

(** [disjoint_union gs] — one graph holding every input side by side (task
    ids are offset in list order); scheduling it runs the applications
    concurrently on a shared platform, which is how a batch of independent
    jobs is expressed.  Returns the offsets at which each input's tasks
    start.
    @raise Invalid_argument on an empty list. *)
val disjoint_union : t list -> t * int array

(** [check_invariants g] re-verifies every structural invariant; used by
    property tests.
    @raise Invalid_argument when an invariant is broken. *)
val check_invariants : t -> unit

val pp : Format.formatter -> t -> unit
