(** Rolling-horizon online scheduling: event-driven re-planning with
    fault recovery and graceful degradation.

    The offline heuristics of this library schedule a fixed DAG once;
    [run] keeps a schedule alive under an {!Event} trace — jobs arriving
    mid-execution, processors crashing, blacking out and rejoining, and
    deadlines forcing re-plans.  The driver advances simulated time event
    by event; at each disruption it

    - {e freezes} the executed prefix: every task that started before the
      current instant keeps its processor and time window, bit for bit
      (checked against a running ledger — see the determinism contract in
      [doc/online.md]);
    - kills work lost to the fault (tasks on a dead processor that had
      not finished, tasks whose inputs travelled through a down window,
      and their transitive dependents);
    - re-plans only the remaining suffix with {!Heuristics.Repair.schedule_suffix}
      — upward-rank order, earliest finish over the {e alive} processors,
      floored at the current instant.

    Every re-plan gets an engine, replays the frozen copies that engine
    has not placed, then re-plans the rest.  When the job mix is
    unchanged the engine is the current one, {e incremental}ly rewound
    to the longest all-frozen prefix of its commit log
    ({!Heuristics.Engine.rewind}), so only the straggling frozen
    decisions are replayed — the path [test/claims/claims.exe] times
    against the from-scratch rebuild.  Admission and shedding recompose
    the composite graph, so they take a fresh engine and replay every
    frozen copy.

    Robustness policies:

    - {e retry with exponential backoff}: a [Down] processor is probed
      after [backoff], [2·backoff], [4·backoff], … up to [max_retries]
      times; work planned on it stalls optimistically.  A [Rejoin] before
      exhaustion triggers a catch-up re-plan that re-routes the work the
      window swallowed; exhaustion declares the processor dead and
      re-routes immediately;
    - {e admission control}: at most [max_active] jobs run concurrently;
      surplus arrivals queue (FIFO, capacity [queue_cap]) and are
      admitted as capacity frees; beyond that — or once the replan budget
      is exhausted — arrivals are rejected;
    - {e graceful degradation}: when a deadlined job's predicted finish
      slips past its deadline, the driver sheds an active job with no
      started task, chosen by {!Admission.shed_victim} (the lowest
      priority strictly below the late job's, the newest among equals),
      and re-plans, repeating until the deadline is met or no candidate
      remains.

    Every re-plan's output is checked {!Sched.Validate}-clean (outside
    the timed window), every re-plan keeps the executed prefix
    bit-identical (checked too), and the whole run is
    deterministic: no randomness, event ties broken by input order.
    Only port-regime communication models are supported. *)

type config = {
  params : Heuristics.Params.t;
      (** engine policy, rank averaging and communication model (port
          regimes only) for the initial plan and every re-plan *)
  heuristic : string;
      (** {!Heuristics.Registry} entry used for the initial plan when the
          trace opens at t = 0 on a healthy platform; re-plans are always
          repair-style *)
  max_active : int;  (** admission control: concurrent job cap *)
  queue_cap : int;  (** FIFO backlog capacity beyond [max_active] *)
  replan_budget : int;
      (** once this many re-plans have run, arrivals are rejected and
          optional re-plans skipped; safety re-plans (crash, give-up)
          still run *)
  max_retries : int;  (** probes before a [Down] processor is given up *)
  backoff : float;  (** first probe delay; doubles per retry *)
  incremental : bool;
      (** rewind the commit log instead of rebuilding (default [true];
          [false] forces the from-scratch path — the baseline the
          claims executable times it against) *)
}

val default_config : config

type job_state = Queued | Active | Completed | Shed | Rejected

type job_report = {
  id : int;  (** arrival order, from 0 *)
  arrived : float;
  spec : Event.job;
  state : job_state;
  finish : float;  (** completion time; [nan] unless [Completed] *)
  missed : bool;  (** completed after its deadline *)
}

type replan_report = {
  at : float;
  trigger : string;
      (** ["arrive"], ["admit"], ["crash"], ["give-up"], ["rejoin"] or
          ["shed"] *)
  incremental : bool;  (** served by commit-log rewind, not a rebuild *)
  frozen : int;  (** executed-prefix tasks kept verbatim *)
  replanned : int;  (** suffix tasks re-scheduled *)
  wall_s : float;  (** wall-clock seconds of the re-plan core (validation
                       excluded) *)
  makespan : float;
}

type outcome = {
  schedule : Sched.Schedule.t option;  (** final plan ([None]: no job ever
                                           admitted) *)
  graph : Taskgraph.Graph.t option;  (** final composite graph *)
  makespan : float;
  events_processed : int;  (** external trace events consumed *)
  replans : replan_report list;  (** chronological *)
  jobs : job_report list;  (** arrival order *)
  completed : int;
  deadline_misses : int;
  shed : int;
  rejected : int;
  retries : int;  (** failed probes of down processors *)
  backoff_s : float;  (** simulated time spent between probes *)
  budget_exhausted : bool;
}

(** [run ?config plat events] — consume the trace against platform
    [plat].  Events are stably sorted by time first, so the input may be
    unordered; same-time events keep their input order.  After the last
    event the driver drains: queued jobs are admitted as running ones
    finish, then every active job completes.
    @raise Invalid_argument on a non-port communication model, a
    [max_active] below 1, a negative [queue_cap] or [max_retries], a
    negative or non-finite [backoff], a [backoff * 2^max_retries] that
    is not finite, a negative event time, an
    out-of-range processor, or an unknown heuristic / testbed name.
    @raise Failure if a re-plan is not Validate-clean, the frozen prefix
    changes, or every processor is dead at a re-plan. *)
val run : ?config:config -> Platform.t -> Event.t list -> outcome

(** Deterministic summary block (no wall-clock numbers). *)
val pp_outcome : Format.formatter -> outcome -> unit
