(** Graphviz export of task graphs and (optionally) schedules.

    [to_string g] renders the DAG with task weights and edge volumes;
    [with_allocation] colours tasks by the processor chosen by a scheduler
    so allocations can be inspected visually. *)

val to_string : Graph.t -> string

(** [with_allocation g ~proc_of] colours each task by [proc_of task]
    (palette cycles over 12 colours). *)
val with_allocation : Graph.t -> proc_of:(int -> int) -> string
