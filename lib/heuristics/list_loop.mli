(** The generic list-scheduling loop shared by the one-task-at-a-time
    heuristics (HEFT, PCT, CPOP, BIL): pop the highest-priority ready task,
    let the heuristic's [handle] place it, release newly ready successors.
    Priorities are static; ties break on task id (the order of
    {!Prelude.Pqueue.Int_heap}), keeping every heuristic deterministic.

    When span tracing is enabled the drain loop is wrapped in a ["map"]
    span with one ["place"] span per task. *)

(** [decision_order ~priority g] is the exact order in which {!run} hands
    tasks to [handle]: the Kahn drain by descending priority (ties on
    task id).  It depends only on the graph and the priorities — not on
    any placement decision — which is what lets the prefix-replay
    improvers rebuild only a suffix of it.
    @raise Invalid_argument on a cyclic graph. *)
val decision_order : priority:float array -> Taskgraph.Graph.t -> int array

(** [run ?params ~priority ?handle plat g] — [handle] places one ready
    task (default: {!Engine.schedule_best}'s earliest-finish-time rule);
    model and slot policy come from [params].  Returns the completed
    schedule. *)
val run :
  ?params:Params.t ->
  priority:float array ->
  ?handle:(Engine.t -> int -> unit) ->
  Platform.t ->
  Taskgraph.Graph.t ->
  Sched.Schedule.t
