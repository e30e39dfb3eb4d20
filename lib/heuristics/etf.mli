(** ETF — Earliest Task First (Hwang, Chow, Anger, Lee).

    A classical greedy the literature often contrasts with list scheduling:
    at each step, examine {e every} (ready task, processor) pair and start
    the pair with the globally earliest execution start time, breaking ties
    by higher static level, then by task id and processor index.  Under
    one-port models the start time already accounts for port contention
    through the shared engine.

    Like GDL this is quadratic in the ready-set size — a strong but slow
    baseline. *)

val schedule :
  ?params:Params.t -> Platform.t -> Taskgraph.Graph.t -> Sched.Schedule.t
