(** Exact one-port scheduling of fork graphs on same-speed processors.

    The setting of the paper's §2.3 example and §3 complexity proof: a
    parent task [v_0] fanning out to [N] children over a fully homogeneous
    network (unit cycle-times, unit link cost), under the bi-directional
    one-port model.  Here brute force is genuinely exact, because the
    optimal schedule necessarily has this shape:

    - the parent runs at time 0 on some processor [P_0]; a subset of
      children runs on [P_0] right after it (no communication);
    - remote children receive their message through [P_0]'s send port —
      the only contended resource — so a schedule is determined by the
      assignment of children to processors and the order of sends, sent
      back to back starting when the parent completes;
    - each remote processor executes its children greedily in arrival
      order (earliest-release-date is optimal for makespan on one
      machine).

    We enumerate set partitions of the children (canonical
    restricted-growth labelling kills processor symmetry) times send
    permutations; sizes are capped accordingly. *)

type instance = {
  parent_weight : float;
  child_weights : float array;
  child_data : float array;  (** message volume to each child *)
}

(** Recognise a fork graph: task 0 is the only entry and every other task
    is a direct child of it. *)
val of_graph : Taskgraph.Graph.t -> instance option

(** [makespan inst ~assignment ~send_order] evaluates one concrete
    schedule shape: [assignment.(i) = 0] keeps child [i] on the parent's
    processor, other values group children on remote processors;
    [send_order] lists remote children in sending order (children of
    assignment 0 must not appear).
    @raise Invalid_argument on inconsistent arguments. *)
val makespan : instance -> assignment:int array -> send_order:int list -> float

(** [optimal_makespan ?max_procs inst] — exhaustive optimum with at most
    [max_procs] processors (default: one per task).  When every remote
    child can have its own processor the search reduces to subset
    enumeration with a provably optimal (non-increasing weight) send order
    and handles up to 20 children; with fewer processors the full
    partition × permutation enumeration caps at 8 children.
    @raise Invalid_argument beyond those sizes. *)
val optimal_makespan : ?max_procs:int -> instance -> float
