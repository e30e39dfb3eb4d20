(** Name-indexed scheduler registry used by the CLI and the experiment
    harness.

    Every entry exposes the same uniform signature: a {!Params.t} record
    carrying all tuning knobs (model, slot policy, averaging, ILHA's chunk
    parameters), then platform and graph.  Heuristics read the fields they
    understand and ignore the rest, so callers configure any heuristic the
    same way — there are no per-heuristic escape hatches.  Pass
    {!Params.default} for the paper's setting. *)

type scheduler =
  Params.t -> Platform.t -> Taskgraph.Graph.t -> Sched.Schedule.t

type entry = {
  name : string;
  description : string;
  scheduler : scheduler;
  scalable : bool;
      (** [false] for quadratic-in-ready-set heuristics (GDL, ETF) that
          should be skipped on very large graphs *)
}

(** All registered heuristics.  ILHA variants (chunk size, scans,
    rescheduling) are selected through {!Params.t}, not separate
    entries. *)
val all : entry list

val names : string list

(** Online crash repair, available uniformly for every registered
    heuristic: whatever produced the schedule, [repair ~proc ~at] freezes
    the decisions already acted on and re-maps the rest onto the
    survivors with the shared engine (= {!Repair.crash}).  [params]
    configures the re-mapping pass exactly like a scheduler run. *)
val repair :
  ?params:Params.t -> proc:int -> at:float -> Sched.Schedule.t -> Repair.result

(** @raise Invalid_argument on an unknown name. *)
val find : string -> entry
