(** Duplication-aware HEFT: HEFT's decision order, plus task duplication.

    For each task, every candidate processor is priced as in HEFT, then
    improved by {e duplicating} the task's critical remote predecessor
    onto the candidate whenever the extra copy strictly lowers the task's
    earliest finish time (repeated up to [max 1 params.dup_limit] times
    per decision) — the insertion-based duplication move of Wang–Sinnen's
    survey of duplication heuristics.  The winning candidate keeps its
    copies; losing candidates are rewound through the engine's commit
    log.  The result is compared against plain single-copy HEFT and the
    better of the two schedules is returned, so heft-dup never loses to
    HEFT.

    Duplication is port-regime only: under BSP or latency–overhead
    models this module falls back to {!Heft.schedule}. *)

(** [schedule ?params plat g] builds a complete valid schedule, possibly
    placing some tasks as several copies ({!Sched.Schedule.has_dups}).
    Reads [params.model], [params.policy], [params.averaging] and
    [params.dup_limit] (0 = one duplication per decision). *)
val schedule :
  ?params:Params.t -> Platform.t -> Taskgraph.Graph.t -> Sched.Schedule.t
