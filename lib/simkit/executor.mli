(** Discrete-event execution of a schedule's decisions.

    The second of two independent timing procedures over one decision
    graph ({!Decisions}, shared with {!Pert}'s longest-path re-timing):
    keep only the schedule's {e decisions} — the allocation, each
    processor's task order, each port's/link's message order — and
    execute them with an event queue.  An event (task execution or
    communication hop) fires as soon as

    - all its data dependencies have completed, and
    - it is at the head of the FIFO of {e every} resource it occupies
      (compute unit, send port, receive port, shared link — per the
      model), and each of those resources is free.

    The executor processes completions in chronological order, exactly as
    a simulator stepping through time.  Because the decision orders come
    from a valid schedule, execution always completes, and the resulting
    makespan must equal {!Pert.compacted_makespan} — the property tests
    pin the two procedures against each other, and on the port rungs
    both against the builder's own makespan. *)

type trace = {
  makespan : float;
  task_starts : float array;
  events_fired : int;
      (** total events processed (tasks + communication hops) *)
}

(** [run s] — execute the schedule's decisions as-soon-as-possible.
    @raise Failure if execution deadlocks, which would mean the recorded
    orders are inconsistent (a corrupt schedule). *)
val run : Sched.Schedule.t -> trace
