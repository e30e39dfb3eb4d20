(** The incremental kernel behind the allocation improvers.

    A driver holds one schedule built with a {e forced} allocation in
    {!Refine.rebuild}'s fixed decision order (upward-rank Kahn drain,
    {!List_loop.decision_order}).  Changing task [v]'s processor marks
    the build dirty from [v]'s decision position; the next query rewinds
    the engine's commit log to that position ({!Engine.rewind}) and
    replays only the suffix.  Because the decision order is
    allocation-independent, the result is {e bit-identical} to a
    from-scratch rebuild of the same allocation — the property the
    improver equivalence suite pins down against the test-only
    [onesched_oracle] library's [Refine_ref] and [Anneal_ref].

    A move at decision position [k] therefore costs O(n - k) decisions
    instead of O(n), plus the rewind's O(work undone); on average half
    the schedule, and much less when the improver touches sink-side
    tasks.  The [rollbacks] / [replayed tasks] counters make the saving
    observable. *)

type t

(** [create ?policy ~model ~alloc plat g] builds the initial schedule for
    [alloc] (which is copied).  Equivalent to
    [Refine.rebuild ~alloc:(Array.get alloc)] — same model, policy,
    priority and decision order. *)
val create :
  ?policy:Engine.policy ->
  model:Commmodel.Comm_model.t ->
  alloc:int array ->
  Platform.t ->
  Taskgraph.Graph.t ->
  t

(** Current processor of [v] in the driver's allocation. *)
val alloc : t -> int -> int

(** A copy of the whole current allocation. *)
val alloc_array : t -> int array

(** [set_alloc t v q] moves task [v] to processor [q] in the allocation.
    O(1): the rebuild is deferred to the next {!schedule}/{!makespan}. *)
val set_alloc : t -> int -> int -> unit

(** The schedule of the current allocation, rebuilding the dirty suffix
    if needed.  The returned schedule is owned by the driver: it is
    mutated in place by later [set_alloc] + query cycles, so callers
    that need to keep it must {!Sched.Schedule.copy} it. *)
val schedule : t -> Sched.Schedule.t

(** Makespan of {!schedule}. *)
val makespan : t -> float
