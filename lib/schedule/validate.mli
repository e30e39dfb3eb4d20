(** Independent schedule validity checking.

    Re-derives every constraint of §2.1 and §2.3 directly from the recorded
    events — never from the builder's internal timelines — so that a bug in
    the gap-search machinery cannot hide a bug in a heuristic:

    - every task placed, each copy ({!Schedule.copies}) on its own
      processor with the correct duration [w(v) * t_alloc(v)];
    - processor exclusivity: one task copy at a time per processor;
    - precedence: an edge's hops split into provenance chains at
      {!Schedule.comm_head_at}.  A chain departs a finished copy of the
      source and follows the platform route to a copy of the destination,
      each hop [data * hop_cost] long and starting once the previous one
      ends.  Each copy of the destination starts once a source copy on its
      processor finishes or the one chain delivering there arrives
      (zero-volume edges may omit events and wait for any source copy);
    - port discipline: under one-port models, the send (resp. receive)
      events of a processor are pairwise disjoint — bi-directional keeps
      the two directions independent, uni-directional pools them;
    - no-overlap variants: communication events are also disjoint from
      task executions on both endpoint processors. *)

(** [check s] is [Ok ()] or [Error messages] listing every violation found
    (human-readable, deterministic order).

    The checker streams: occupancy constraints bucket packed int event
    tags per resource, sort each bucket by start (longest first among
    equal starts) and compare adjacent events, with labels formatted
    only for offending pairs, so validating a clean million-task
    schedule allocates O(events) ints and floats and no strings. *)
val check : Schedule.t -> (unit, string list) result

(** @raise Failure with the first violations when invalid. *)
val check_exn : Schedule.t -> unit

val is_valid : Schedule.t -> bool

(** The occupancy sweep behind {!check}'s processor, link and port
    checks, on bare intervals, for tests.  Interval [i] is
    [[start.(i), finish.(i))] on resource [res.(i)] (resources are
    [0 .. max res]).  Per resource, intervals are ordered by start, the
    longest first among equal starts; [a] before [b] overlap when
    [start.(b) < finish.(a) - 1e-9].  The result lists the adjacent
    overlapping pairs [(resource, a, b)] the sweep reports, resource by
    resource: a resource has one iff two of its intervals overlap. *)
val sweep_overlaps :
  res:int array ->
  start:float array ->
  finish:float array ->
  (int * int * int) list
