(** Shared earliest-finish-time machinery for all list heuristics.

    The one-port adaptation of §4.3 in executable form: to evaluate placing
    a ready task on a candidate processor, the engine greedily schedules
    every incoming communication into the earliest joint free interval of
    the involved ports (hop by hop along the platform route), derives the
    earliest execution start on the candidate's compute timeline, and
    reports the finish time.  Evaluation never mutates committed state —
    tentative slots ride along as "extra busy" intervals — so a heuristic
    can compare all processors and commit only the winner.

    Under the macro-dataflow model the very same code runs with empty port
    busy-sets, reproducing the classical unrestricted behaviour.

    The default implementation is allocation-conscious: the engine owns a
    reusable arena of tentative busy intervals keyed by stable resource
    ids, caches platform routes per processor pair and the incoming-edge
    table per task, prices every candidate into flat scratch buffers and
    commits straight from them (a priced candidate has no other form),
    prunes candidates in {!schedule_best_among} and {!schedule_pending}
    whose finish-time lower bound ({!lower_bound}) cannot beat the incumbent,
    and stops pricing a candidate as soon as its inputs alone put it out
    of the running ({!Obs.Counters} reports [pruned evaluations],
    [aborted evaluations] and [route-cache hits]).  So that the incumbent
    is strong early, {!schedule_best} and {!schedule_best_among} price
    one {e seed} first — the processor holding the input estimated to arrive
    last — and then the rest in index order; ties still go to the lowest
    index.  The original list-based evaluator lives in the test-only
    [onesched_oracle] library ([Engine_ref]), which installs it through
    the {!oracle} seam to prove both produce bit-identical schedules. *)

(** Slot-search policy: [Insertion] may fill idle gaps between committed
    work (classical insertion-based HEFT); [Append] only considers slots
    after the last committed event of each involved timeline. *)
type policy = Insertion | Append

type t

(** [create ?policy sched] — an engine over [sched] (default policy
    [Insertion]).  Each engine owns its scratch space, so one engine must
    not be used from two domains at once. *)
val create : ?policy:policy -> Sched.Schedule.t -> t
val schedule : t -> Sched.Schedule.t
val policy : t -> policy

(** [lower_bound t ~task ~proc] — the finish-time lower bound
    {!schedule_best_among} prunes with, exposed as a test hook; all
    predecessors of [task] must be placed.  Under the port regime it is
    the larger of two figures: the earliest slot of [task] on [proc]'s
    committed compute timeline after every input's earliest possible
    arrival (a remote input crossing its route hop by hop on idle
    ports), plus the execution time; and every remote input's arrival
    when its first hop waits for the earliest slot of the source's
    committed send port, plus the execution time.  Scans run the stages
    lazily, the send-port stage before the compute probe, and gate the
    send-port stage; this hook always runs all of them.
    Under BSP and latency+overhead it is the latest predecessor finish
    (or [floor]) plus the execution time.  Never above the finish time
    {!price} gives the same candidate. *)
val lower_bound : ?floor:float -> t -> task:int -> proc:int -> float

(** {2 Price, keep, commit}

    The engine holds two candidates: the {e current} one, which each
    pricing overwrites, and the {e kept} one.  A heuristic that ranks
    candidates by its own score (GDL, ETF, BIL, the branch-and-bound,
    heft-dup's replay) prices each, reads its times, {!keep}s the ones it
    prefers and commits the kept one: the winner is committed as it was
    priced, never re-priced.  The place steps below leave the kept
    candidate alone, except the scans ({!schedule_best},
    {!schedule_best_among}, {!schedule_pending}), which replace it. *)

(** [price t ~task ~proc] makes [task] on [proc] the current candidate.
    All predecessors of [task] must already be placed.  Incoming
    communications are considered in increasing order of predecessor
    finish time (ties by task id) and placed greedily on top of the
    committed schedule, which is left untouched.  [floor] (default 0)
    lower-bounds every planned event: neither a hop nor the execution
    may start before it.  Online repair uses it to keep new decisions
    at or after the crash instant.  Bumps [evaluations]. *)
val price : ?floor:float -> t -> task:int -> proc:int -> unit

(** The current candidate's execution start and finish. *)
val priced_est : t -> float

val priced_eft : t -> float

(** [keep t] makes the current candidate the kept one.  The two swap
    places: afterwards {!priced_est} and {!priced_eft} read the
    previously kept candidate, so read the times first. *)
val keep : t -> unit

(** [commit_kept t ~task] places [task] as the kept candidate says, with
    its communications, and appends an entry to the engine's
    {e commit log}, enabling {!rewind}.  The schedule must be in the
    state the candidate was priced in. *)
val commit_kept : t -> task:int -> unit

(** [commit_kept_copy t ~task] places a {e duplicate} copy of the
    already-placed [task] as the kept candidate says (with the
    communications feeding that copy) and logs a copy entry, rewound
    with {!Sched.Schedule.unplace_copy}.  The engine's cached incoming
    table is invalidated — the task's feeding copy set just changed.
    @raise Invalid_argument if the task has no primary copy yet or the
    candidate travels in a BSP phase (duplication is port-regime
    only). *)
val commit_kept_copy : t -> task:int -> unit

(** [set_candidate t ~task ~proc ~start comms] makes a placement priced
    outside the engine the current candidate: [task] starting on [proc]
    at [start], fed by [comms] in commit order.  The schedule derives
    each event's finish from its hop, except under BSP, where the
    events' common window is the comm phase the commit opens.  The hops
    of one edge must be consecutive, as every pricing lists them: a hop
    heads a provenance chain exactly when the hop before it carries
    another edge.  The online driver re-commits frozen copies this way,
    and the test oracle hands over its pricings.  Bumps no counter. *)
val set_candidate :
  t -> task:int -> proc:int -> start:float -> Sched.Schedule.comm list -> unit

(** Number of commits performed through this engine — the length of the
    commit log, and the upper bound for {!rewind}'s [to_]. *)
val n_commits : t -> int

(** [commit_task_at t i] is the task of the [i]-th commit (0-based). *)
val commit_task_at : t -> int -> int

(** [commit_proc_at t i] is [-1] for a whole-task commit and the copy's
    processor for a copy entry. *)
val commit_proc_at : t -> int -> int

(** [rewind t ~to_:k] retracts commits [k, k+1, ...] in reverse order,
    returning the schedule to its state after the first [k] commits, in
    time proportional to the work undone.  Only valid when every mutation
    of the schedule since engine creation went through this engine's
    commits (the improver and search builders satisfy this; code calling
    [Schedule.place_task]/[add_comm] directly does not).  Bumps the
    [rollbacks] counter.
    @raise Invalid_argument unless [0 <= to_ <= n_commits t]. *)
val rewind : t -> to_:int -> unit

(** {2 Place steps}

    Price and commit in one call, committing the winner as it was
    priced.  To read a choice without keeping it, place the task, read
    the schedule, then {!rewind}. *)

(** [schedule_on t ~task ~proc] = {!price} + commit on a forced
    processor. *)
val schedule_on : ?floor:float -> t -> task:int -> proc:int -> unit

(** [schedule_copy_on t ~task ~proc] = {!price} + copy commit on [proc]
    (see {!commit_kept_copy}). *)
val schedule_copy_on : ?floor:float -> t -> task:int -> proc:int -> unit

(** [schedule_best t ~task] commits [task] on the processor of minimum
    [eft] over all processors, ties to the lowest processor index (the
    paper's tie-break in §4.4's toy example), and returns it.  The scan
    is {!schedule_best_among}'s over every processor, seed first. *)
val schedule_best : ?floor:float -> t -> task:int -> int

(** [schedule_best_among t ~task procs] is {!schedule_best} restricted to
    a candidate list.  Candidates that are already strictly sorted
    (every current caller) are used as-is; otherwise the list is sorted
    and de-duplicated first.  The {e seed} is priced first: of the
    task's inputs in §4.3 order, take the first with the latest
    estimated arrival, its source's finish plus its data over the
    costliest route out of the source's processor; the seed is that
    processor, if it is a candidate.  The other candidates follow in
    index order (all of them in index order when there is no seed).  A
    candidate whose {!lower_bound} reaches the incumbent's finish time
    is pruned without a full evaluation, and, under the port regime,
    one whose inputs priced so far already do is abandoned mid-pricing.
    A candidate of lower index than the incumbent wins a tie, so for it
    both figures must exceed the incumbent's finish time.  Neither ever
    changes the result: both figures are at most the true finish time,
    and ties go to the lowest index.  The bound runs its stages in the
    order input arrival (stage 1), committed send-port wait (stage 3),
    then the compute-timeline probe (stage 2), each only while the ones
    before it stay below the incumbent: stage 3's probe is cached per
    input, so it usually costs nothing, and a candidate it prunes saves
    the compute probe.  Stage 3 runs only when a cheap ceiling on it
    reaches the incumbent.  Each stage is a lower bound, so the order
    does not change which candidates are pruned.
    @raise Invalid_argument on an empty list. *)
val schedule_best_among : ?floor:float -> t -> task:int -> int list -> int

(** [schedule_pending t ~tasks ~procs ~alive] commits the earliest alive
    row [i] minimising the finish time of [tasks.(i)] on [procs.(i)]
    (ties to the lowest row) and returns [i], or returns [-1] and
    commits nothing when no row is alive.  ILHA's reschedule step calls
    this once per commit over its whole ready chunk.  Rows are pruned
    and aborted exactly as in {!schedule_best_among}, ties going to the
    lowest row.
    @raise Invalid_argument on mismatched array lengths. *)
val schedule_pending :
  ?floor:float ->
  t ->
  tasks:int array ->
  procs:int array ->
  alive:bool array ->
  int

(** {2 Test seam} *)

(** A substitute pricing and argmin: while {!oracle} holds one,
    {!price}, {!schedule_on} and {!schedule_copy_on} call [price] (with
    [floor] defaulted to 0) instead of the arena engine, and
    {!schedule_best}, {!schedule_best_among} and {!schedule_pending}
    call [argmin] over their (task, processor) rows — one row per
    candidate processor for the first two.  [price] must leave its
    pricing as the current candidate ({!set_candidate}); [argmin] must
    return the earliest alive row of least finish time, or -1 when no
    row is alive, leaving that row's pricing kept ({!keep}).  The engine
    then commits as usual; {!lower_bound} and {!rewind} are unaffected.
    The test suite installs an executable specification here to prove
    the engine bit-identical to it.  The library never sets it: it is
    [None] unless a test installs one. *)
type oracle = {
  price : floor:float -> t -> task:int -> proc:int -> unit;
  argmin :
    floor:float ->
    t ->
    tasks:int array ->
    procs:int array ->
    alive:bool array ->
    int;
}

val oracle : oracle option ref
