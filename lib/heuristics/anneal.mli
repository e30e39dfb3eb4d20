(** Simulated annealing over allocations.

    A second §6-style improver, complementing {!Refine}'s hill climbing:
    anneal the allocation map [task -> processor], evaluating each
    candidate by rebuilding the schedule (priority order and greedy
    communication placement fixed, as in {!Refine.rebuild}).  Moves pick a
    random task and a random new processor; acceptance follows the
    Metropolis rule with a geometric cooling schedule.  Fully
    deterministic given the seed.

    Annealing explores worse intermediate allocations, so unlike pure hill
    climbing it can cross the valleys that one-port port contention
    creates (moving one task often requires moving a neighbourhood).  It
    costs one full rebuild per step — use on small/medium instances. *)

type params = {
  steps : int;  (** total proposals (default 400) *)
  initial_temperature : float;
      (** as a fraction of the initial makespan (default 0.05) *)
  cooling : float;  (** per-step geometric factor (default 0.99) *)
  seed : int;
}

val default_params : params

type result = {
  schedule : Sched.Schedule.t;
  initial_makespan : float;
  final_makespan : float;
  accepted : int;
  improved : int;  (** accepted moves that strictly improved the incumbent *)
  moves : (int * int * float) list;
      (** accepted moves in order: task, new processor, resulting
          makespan — the move trace the equivalence suite compares *)
}

(** [improve ?policy ?params sched] — anneal from the schedule's
    allocation.  The returned schedule is the best ever seen (never worse
    than the better of the input and its rebuild).

    Proposals are priced incrementally on a {!Prefix_replay} driver (one
    rewind + suffix replay per step instead of a full rebuild);
    results are bit-identical to the from-scratch annealer (one full
    rebuild per proposal) that the test-only [onesched_oracle] library
    keeps as [Anneal_ref]. *)
val improve : ?policy:Engine.policy -> ?params:params -> Sched.Schedule.t -> result
