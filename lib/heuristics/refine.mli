(** Post-pass allocation refinement (the improvement direction §6 leaves
    open).

    A complete schedule fixes an allocation [task -> processor].  This
    module hill-climbs on that allocation: rebuild the schedule by list
    scheduling in bottom-level priority order with the allocation {e
    forced} (communications still placed greedily under the model), then
    repeatedly try moving one task — chosen from the tasks that finish
    last, the bottleneck — to each other processor, keeping any move that
    shrinks the rebuilt makespan.  Deterministic; stops after
    [max_rounds] rounds without improvement or [max_moves] accepted
    moves. *)

type result = {
  schedule : Sched.Schedule.t;
  initial_makespan : float;  (** of the input schedule *)
  final_makespan : float;
  accepted_moves : int;
  evaluations : int;  (** allocations priced (initial build included) *)
  moves : (int * int * float) list;
      (** accepted moves in order: task, new processor, resulting
          makespan — the incumbent trace the equivalence suite compares *)
}

(** [rebuild ?params ~alloc plat g] — list-schedule with the given
    forced allocation (priority = upward rank).  The building block for
    refinement, exposed for tests and for evaluating externally-computed
    allocations. *)
val rebuild :
  ?params:Params.t ->
  alloc:(int -> int) ->
  Platform.t ->
  Taskgraph.Graph.t ->
  Sched.Schedule.t

(** [candidate_tasks sched] — the tasks {!improve} tries to move, in
    increasing order: those finishing at the makespan, plus every task on
    a backward critical chain from them (a predecessor whose data becomes
    available exactly when its successor starts). *)
val candidate_tasks : Sched.Schedule.t -> int list

(** [improve ?policy ?max_rounds ?max_moves sched] — refine the schedule's
    allocation.  The result's schedule is never worse than the better of
    the input and its rebuild.

    Candidate moves are priced incrementally on a {!Prefix_replay}
    driver: moving a task rewinds to its decision position and replays
    only the suffix, instead of paying a full rebuild per step.  The
    result — schedule, move trace, every count — is bit-identical to the
    from-scratch climber (one full rebuild per priced move) that the
    test-only [onesched_oracle] library keeps as [Refine_ref]. *)
val improve :
  ?policy:Engine.policy -> ?max_rounds:int -> ?max_moves:int -> Sched.Schedule.t -> result
