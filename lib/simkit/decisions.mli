(** The decision event graph of a finished schedule, shared by the
    simulators ({!Pert}, {!Executor}, {!Faulty_executor}).

    A schedule fixes three kinds of decisions: where each task copy runs,
    in which order each processor executes them, and in which order each
    port (and link, per the model) carries its messages.  [build] keeps
    exactly those decisions as a graph over event nodes:

    - tasks are nodes [\[0, n_tasks)], communication hops follow in
      commit order (hop [i] is node [n_tasks + i]), duplicate copies come
      last;
    - {!field-dependents} are the data dependencies: one provenance chain
      per remote delivery (source copy → hops → destination copy), plus
      each consumer copy's local or zero-data feed;
    - {!field-streams} are the resources' event orders, each sorted by
      recorded start (ties by node id).

    A built graph is read-only: consumers keep their own per-run state,
    so one graph may be shared across domains. *)

type t = {
  n_tasks : int;
  comms : Sched.Schedule.comm array;  (** hop [i] is node [n_tasks + i] *)
  task : int array;  (** the task a node runs; [-1] for hops *)
  proc : int array;  (** the processor a task node computes on; [-1] for hops *)
  duration : float array;  (** each node's recorded duration *)
  dependents : int list array;  (** data successors of each node *)
  streams : int array array;  (** each resource's nodes in recorded start order *)
  node_streams : int list array;  (** indices of the streams a node occupies *)
}

val build : Sched.Schedule.t -> t

(** Number of event nodes (tasks, hops and duplicate copies). *)
val n_nodes : t -> int

(** Data in-degree of every node. *)
val in_degrees : t -> int array
