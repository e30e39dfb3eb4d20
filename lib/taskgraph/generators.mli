(** Random DAG generators for property-based testing and stress tests.

    All generators are deterministic functions of the supplied {!Prelude.Rng}
    state.  Weights and volumes are drawn as small positive integers stored
    as floats, so all schedule arithmetic in tests is exact. *)

(** [layered rng ~layers ~width ~edge_prob ~max_weight ~max_data] — a DAG of
    [layers] levels of up to [width] tasks; each pair of tasks in adjacent
    layers is connected with probability [edge_prob]; tasks with no
    predecessor in the previous layer get one forced edge so the level
    structure is preserved. *)
val layered :
  Prelude.Rng.t ->
  layers:int ->
  width:int ->
  edge_prob:float ->
  max_weight:int ->
  max_data:int ->
  Graph.t

(** [erdos_renyi rng ~n ~edge_prob ~max_weight ~max_data] — each pair
    [(i, j)] with [i < j] is an edge with probability [edge_prob] (ordering
    by task id guarantees acyclicity). *)
val erdos_renyi :
  Prelude.Rng.t ->
  n:int ->
  edge_prob:float ->
  max_weight:int ->
  max_data:int ->
  Graph.t

(** [out_tree rng ~n ~max_arity ~max_weight ~max_data] — a random rooted
    out-tree: task 0 is the root; every other task picks a parent among the
    earlier tasks with fewer than [max_arity] children. *)
val out_tree :
  Prelude.Rng.t ->
  n:int ->
  max_arity:int ->
  max_weight:int ->
  max_data:int ->
  Graph.t

(** [series_parallel rng ~depth ~max_weight ~max_data] — random two-terminal
    series-parallel DAG built by recursive series/parallel composition;
    exercises fork/join nesting. *)
val series_parallel :
  Prelude.Rng.t -> depth:int -> max_weight:int -> max_data:int -> Graph.t
