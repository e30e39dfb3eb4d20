(** Schedules: task placements plus per-hop communication events.

    A [Schedule.t] is the mutable object a heuristic builds and the
    immutable-once-finished result the evaluator consumes.  It records, for
    every task, the processor and start time chosen ([σ] and [alloc] of
    §2.1), and, for every remote edge, the communication events hop by hop.
    Commits keep the underlying {!Resource} timelines in sync, so builders
    can keep querying gap searches as they go. *)

type placement = { task : int; proc : int; start : float; finish : float }

type comm = {
  edge : int;  (** edge id in the task graph *)
  src_proc : int;
  dst_proc : int;
  start : float;
  finish : float;
}

type t

(** [create ?exec_time ~graph ~platform ~model] — [exec_time task proc]
    overrides the execution-time rule: by default a task runs for
    [w(task) * cycle_time(proc)] (the paper's related-machines model);
    supplying a matrix-backed function yields the {e unrelated} model of
    the original HEFT paper.  The override must be total and
    non-negative. *)
val create :
  ?exec_time:(int -> int -> float) ->
  graph:Taskgraph.Graph.t ->
  platform:Platform.t ->
  model:Commmodel.Comm_model.t ->
  unit ->
  t

(** The effective execution-time rule of this schedule. *)
val exec_duration : t -> task:int -> proc:int -> float

val graph : t -> Taskgraph.Graph.t
val platform : t -> Platform.t
val model : t -> Commmodel.Comm_model.t
val resource : t -> Resource.t

(** [place_task t ~task ~proc ~start] — the finish time is
    [start + w(task) * cycle_time(proc)]; marks the compute timeline busy.
    @raise Invalid_argument if the task is already placed or the slot
    overlaps committed work. *)
val place_task : t -> task:int -> proc:int -> start:float -> unit

(** [add_comm t ~edge ~src_proc ~dst_proc ~start] appends one hop of the
    edge's route; duration is
    [Comm_model.hop_span ~data:(data edge) ~hop_cost:(hop_cost src dst)]
    — [data × hop_cost] under the port regimes.  Hops must be added in
    route order.  Marks port timelines busy per the model.  Returns the
    hop finish time.

    [head] marks the hop as the first of a {e provenance chain} — one
    route-following delivery of the edge's data from a source copy to a
    destination processor (an edge carries several chains once tasks are
    duplicated).  When omitted, the hop is inferred to start a chain
    unless it extends the edge's previous hop ([prev.dst = src]); pass it
    explicitly when a chain legitimately begins where another ended. *)
val add_comm :
  ?head:bool -> t -> edge:int -> src_proc:int -> dst_proc:int -> start:float -> float

(** [add_comm_in_window t ~edge ~src_proc ~dst_proc ~start ~finish]
    records a communication event with an explicitly chosen window — the
    form BSP scheduling uses, where an edge's event spans its enclosing
    comm phase rather than a per-hop price.  Occupancy is still committed
    per the model's regime ({!Resource.commit_comm}). *)
val add_comm_in_window :
  ?head:bool ->
  t ->
  edge:int ->
  src_proc:int ->
  dst_proc:int ->
  start:float ->
  finish:float ->
  float

(** [add_phase t ~start ~finish] records a BSP communication phase and
    commits it on the phase busy set ({!Resource.commit_phase}).
    @raise Invalid_argument outside the BSP regime or on a negative
    duration. *)
val add_phase : t -> start:float -> finish:float -> unit

(** {2 Task duplication}

    A task may be placed as several {e copies} on distinct processors;
    it completes when its earliest copy does.  The classic single-copy
    accessors ({!placement}, {!proc_of_exn}, …) keep reporting one
    distinguished {e primary} copy — the first one committed — so
    singleton schedules behave bit-identically to the pre-duplication
    representation. *)

(** [place_copy t ~task ~proc ~start] places a copy of [task] on [proc].
    The first copy is exactly {!place_task}; later copies commit on the
    processor's compute timeline and are recorded alongside the primary.
    @raise Invalid_argument on a second copy on the same processor, or on
    an extra copy outside the port regime (BSP/latency phase accounting
    has no provenance rule for replicated producers). *)
val place_copy : t -> task:int -> proc:int -> start:float -> unit

(** [unplace_copy t ~task ~proc] retracts the copy of [task] on [proc] —
    the exact inverse of {!place_copy}.  Removing the primary while
    duplicates remain promotes the surviving copy with the earliest
    finish (ties to the lowest processor).
    @raise Invalid_argument if no copy of [task] runs on [proc]. *)
val unplace_copy : t -> task:int -> proc:int -> unit

(** Whether any task currently has more than one copy.  [false] on every
    schedule built by the single-copy heuristics — the cheap dispatch all
    copy-aware consumers use to stay on the historical code path. *)
val has_dups : t -> bool

(** Number of extra copies beyond the primaries, summed over tasks. *)
val n_dup_copies : t -> int

(** All copies of a task, primary first then duplicates in commit order;
    [[]] if unplaced. *)
val copies : t -> int -> placement list

(** Extra copies only (commit order) — empty for single-copy tasks. *)
val dup_copies : t -> int -> placement list

(** The copy of [task] running on [proc], if any. *)
val copy_on : t -> task:int -> proc:int -> placement option

(** The finish of [task]'s copy on [proc], or [neg_infinity] when no
    copy runs there (or the task is unplaced); builds nothing. *)
val copy_finish_on : t -> task:int -> proc:int -> float

(** Earliest finish over the task's copies — the task's completion time.
    Equals [finish_of_exn] for single-copy tasks.
    @raise Invalid_argument when the task is not placed. *)
val earliest_finish : t -> int -> float

val is_placed : t -> int -> bool
val placement : t -> int -> placement option

(** @raise Invalid_argument when the task is not placed. *)
val placement_exn : t -> int -> placement

(** Non-allocating placement reads; same [Invalid_argument] as
    {!placement_exn} on unplaced tasks. *)
val proc_of_exn : t -> int -> int

val start_of_exn : t -> int -> float
val finish_of_exn : t -> int -> float
val n_placed : t -> int
val all_placed : t -> bool

(** {2 Communication events}

    The schedule stores its communication events as parallel unboxed
    arrays indexed by commit order — edge, source, destination, start,
    finish and chain-head flag — with a per-edge link to the edge's
    previous event.  Committing an event writes into them and allocates
    nothing once they have grown.  Hot readers (the validator, CSV and
    fingerprint export) use the index accessors below, which build
    nothing; {!comm_at}, {!comms}, {!iter_comms} and {!comms_of_edge}
    are views that build one {!comm} record per event, for cold
    callers. *)

(** The fields of the [i]-th event in commit order.
    @raise Invalid_argument unless [0 <= i < n_comm_events t]. *)
val comm_edge : t -> int -> int

val comm_src : t -> int -> int
val comm_dst : t -> int -> int
val comm_start : t -> int -> float
val comm_finish : t -> int -> float

(** All communication events in commit order, as records (allocates). *)
val comms : t -> comm list

(** [comm_at t i] is the [i]-th communication event in commit order, as
    a fresh record, [0 <= i < n_comm_events t]. *)
val comm_at : t -> int -> comm

(** The events of one edge, in commit order, as records (allocates). *)
val comms_of_edge : t -> int -> comm list

(** Whether the [i]-th communication event starts a provenance chain
    (see {!add_comm}).  Chain structure only matters to copy-aware
    consumers; single-copy edges carry exactly one chain. *)
val comm_head_at : t -> int -> bool

(** [iter_comms t ~f] applies [f] to every communication event in commit
    order without materializing the list (one record per event). *)
val iter_comms : t -> f:(comm -> unit) -> unit

val n_comm_events : t -> int

(** Total time during which at least the given edge hop occupies a port
    (sum of hop durations over all events). *)
val total_comm_time : t -> float

(** BSP communication phases in commit order (empty outside BSP). *)
val phases : t -> (float * float) list

(** [phase_at t i] is the [i]-th phase in commit order. *)
val phase_at : t -> int -> float * float

(** [iter_phases t ~f] applies [f start finish] to every phase in commit
    order. *)
val iter_phases : t -> f:(float -> float -> unit) -> unit

val n_phases : t -> int

(** Sum of phase durations. *)
val total_phase_time : t -> float

(** Completion time of the last task (0 for an empty schedule).  A
    duplicated task completes at its {e earliest} copy's finish.
    @raise Invalid_argument if some task is unplaced. *)
val makespan : t -> float

(** Ready time of edge data on a processor, i.e. when the dst may start as
    far as this edge is concerned: source finish for local edges, last hop
    arrival for remote ones. *)
val edge_available_at : t -> edge:int -> float

(** [unplace_task t task] retracts the task's placement — the exact
    inverse of {!place_task}.  The caller is responsible for first
    retracting anything that depended on the placement (successor
    placements, outgoing communications); the schedule does not check.
    @raise Invalid_argument if the task is not placed or still has
    duplicate copies ({!unplace_copy} them first). *)
val unplace_task : t -> int -> unit

(** [truncate_comms t ~down_to] retracts communication events newest-first
    until only the first [down_to] remain — the exact inverse of the
    {!add_comm}s that created them. *)
val truncate_comms : t -> down_to:int -> unit

(** [filter_comms t ~keep] retracts every communication event [c] with
    [not (keep c)], preserving the relative commit order (and therefore
    the per-edge route order) of the kept events.  Phases are left
    untouched — under BSP a phase may end up with fewer events than its
    [g·h + L] price accounts for, which the validator allows. *)
val filter_comms : t -> keep:(comm -> bool) -> unit

(** [filter_commsi] is {!filter_comms} with the commit-order index passed
    to [keep] — lets callers drop events identified positionally (e.g. a
    whole provenance chain) rather than by content. *)
val filter_commsi : t -> keep:(int -> comm -> bool) -> unit

(** [truncate_phases t ~down_to] retracts BSP phases newest-first until
    only the first [down_to] remain. *)
val truncate_phases : t -> down_to:int -> unit

(** Deep copy: committing to the copy leaves the original untouched (the
    immutable graph and platform are shared). *)
val copy : t -> t

val pp : Format.formatter -> t -> unit
