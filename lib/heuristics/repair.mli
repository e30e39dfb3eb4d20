(** Online repair after a fail-stop processor crash.

    When processor [q] dies at time [t] mid-execution, the decisions the
    platform has already acted on cannot be taken back — but everything
    that has not started yet is still ours to re-plan.  [crash] splits
    the nominal schedule accordingly:

    - {e frozen}: every task that started before [t] on a survivor, and
      every task on [q] that {e finished} by [t].  The crash model is
      fail-stop of the compute element only: ports and memory survive,
      so outputs completed on [q] before the crash remain fetchable
      through its ports (checkpoint-on-completion — see
      [doc/robustness.md]).  Frozen placements are replayed verbatim,
      along with the communications feeding them.
    - {e re-mapped}: every task that had not started by [t], plus the
      task running on [q] at the crash instant (its work is lost).
      These are re-scheduled HEFT-style — upward-rank priority order,
      earliest finish time over the {e surviving} processors, same
      one-port engine as the original run ({!Engine}), honouring
      [params] — with every new decision floored at [t].

    The frozen set is closed under precedence (a predecessor of a
    started task must have finished, hence started, earlier), so the
    replay is always a valid prefix and repair always succeeds on any
    valid schedule with at least two processors.

    Repair plans against the {e nominal} durations recorded in the
    schedule; re-executing the repaired schedule under
    [Simkit.Faulty_executor] with the same crash then completes, because
    every event either finishes by [t] or starts at or after [t] on a
    survivor. *)

type result = {
  schedule : Sched.Schedule.t;  (** the repaired schedule, fully placed *)
  crash_proc : int;
  crash_time : float;
  frozen : int;  (** tasks whose nominal decisions were kept *)
  remapped : int list;  (** tasks re-scheduled onto survivors, ascending *)
  nominal_makespan : float;
  repaired_makespan : float;
}

(** [crash ?params ?dead ~proc ~at sched] — repair [sched] (fully
    placed) after processor [proc] fails at time [at].  [params]
    supplies the engine policy and rank averaging for the re-mapping
    pass (default {!Params.default}); the communication model and
    execution-time rule are inherited from [sched].  [dead] lists
    further processors re-mapping must avoid (used when folding repairs
    over several crashes).  [sched] itself is not mutated.
    @raise Invalid_argument if [proc] is out of range, [at] is negative,
    [sched] is not fully placed, or the platform has no survivor. *)
val crash :
  ?params:Params.t ->
  ?dead:int list ->
  proc:int ->
  at:float ->
  Sched.Schedule.t ->
  result

(** [schedule_suffix ?params ~floor ~candidates engine ~todo] — the
    suffix re-mapper [crash] is built on, exposed for the rolling-horizon
    online driver ([lib/online]).  Schedules exactly the tasks with
    [todo.(v) = true] — which must be unplaced in the engine's schedule,
    with every predecessor either already placed or itself in [todo] —
    in upward-rank priority order, each onto its earliest-finish
    processor among [candidates], no event starting before [floor].
    Every decision is committed through the engine
    ({!Engine.schedule_best_among}), so the commit log stays rewindable,
    and bumps the [repairs] counter.  Returns the scheduled tasks in
    ascending order.
    @raise Invalid_argument if [candidates] is empty. *)
val schedule_suffix :
  ?params:Params.t ->
  floor:float ->
  candidates:int list ->
  Engine.t ->
  todo:bool array ->
  int list

val pp_result : Format.formatter -> result -> unit
