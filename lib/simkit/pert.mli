(** Dependency (PERT) view of a finished schedule.

    A schedule fixes three kinds of decisions: where tasks run, in which
    order each processor executes its tasks, and in which order each port
    carries its messages.  This module takes exactly those decisions from
    the shared decision graph ({!Decisions}) as a DAG over events (task
    executions, duplicate copies and communication hops) whose edges
    are:

    - data dependencies (source finish → first hop → … → last hop →
      destination start, or source → destination for local edges);
    - processor order (consecutive tasks on one compute resource);
    - port order (consecutive hops through one send/receive port, honouring
      the model's port discipline — including comm↔task edges under
      no-overlap models).

    Re-timing the DAG with new durations answers two questions the library
    needs: the {e compacted} makespan (same decisions, all idle squeezed
    out — never worse than the original), and the {e degraded} makespan
    under execution-time jitter (robustness / failure injection), both
    without re-running any heuristic. *)

type t

val build : Sched.Schedule.t -> t

val n_events : t -> int

(** [retime t ~task_duration ~hop_duration] — earliest-start times under
    the recorded decision orders with rescaled durations; each callback
    receives the event's {e original} duration and returns the new one.
    Returns the resulting makespan (maximum task finish). *)
val retime :
  t ->
  task_duration:(int -> float -> float) ->
  hop_duration:(Sched.Schedule.comm -> float -> float) ->
  float

(** [compacted_makespan t] — {!retime} with the original durations; always
    [<=] the original makespan (property-tested). *)
val compacted_makespan : t -> float
