(** Busy-interval timelines with earliest-gap search.

    A timeline records the busy intervals of one resource (a processor's
    compute unit, its send port, or its receive port) as a sorted sequence
    of disjoint half-open intervals [[start, finish)].  One query drives
    all scheduling decisions in this library, {!earliest_gap_joint_arr}:
    the earliest start time [>= after] at which the {e union} of several
    timelines is continuously free for [duration] time units.  Over one
    timeline it is the insertion-based slot search of HEFT-style list
    scheduling; over a send port and a receive port it is exactly the
    one-port constraint of the paper (§4.3): a message from [Pq] to [Pr]
    needs a common free interval of [Pq]'s send port and [Pr]'s receive
    port.

    The walk pushes the candidate start past every interval of one
    source that overlaps it before it moves to the next source, and
    repeats until a full pass moves nothing.  The candidate only ever
    takes [after] or an interval's finish, so the answer does not depend
    on the order of the pushes.  A probe of one timeline with no extra
    intervals ({!earliest_gap}) needs no pass structure at all.

    The query accepts [extra] busy intervals so that a heuristic can
    evaluate a candidate placement (including the communications it would
    trigger) without mutating any committed state.

    Cursor search: every query, and {!add}, {!remove} and {!free_at},
    locates the first interval finishing after a time by galloping back
    from the last interval and bisecting the bracket it lands in.  The
    cost is O(log d) for an answer [d] intervals from the tail, and list
    schedulers ask a few intervals from the tail; the index found is the
    one a bisection of the whole timeline finds. *)

type t

val create : unit -> t

(** [add t ~start ~finish] marks [[start, finish)] busy.
    @raise Invalid_argument if [finish < start] or the interval overlaps an
    existing busy interval (touching endpoints are allowed).  Zero-length
    intervals are accepted and ignored. *)
val add : t -> start:float -> finish:float -> unit

(** [remove t ~start ~finish] deletes the busy interval [[start, finish)],
    the exact inverse of {!add} (a zero-length interval is a no-op, as in
    {!add}).
    @raise Invalid_argument if no busy interval equals [[start, finish)]. *)
val remove : t -> start:float -> finish:float -> unit

val n_intervals : t -> int

(** Sorted busy intervals as [(start, finish)] pairs. *)
val intervals : t -> (float * float) list

(** [last_finish t] is the finish time of the last busy interval, or [0.]
    for an empty timeline. *)
val last_finish : t -> float

(** Total busy time. *)
val total_busy : t -> float

(** [earliest_gap_joint_arr ts ~k ~extra_s ~extra_f ~extra_len ~idx ~q]
    answers the query held in [q]: on entry [q.(0)] is [after] and
    [q.(1)] is [duration]; on return [q.(0)] is the earliest
    [s >= after] such that [[s, s + duration)] meets no busy interval of
    the joint busy set (a non-positive [duration] leaves [after]).  The
    joint busy set is the first [k] timelines of [ts] plus the tentative
    intervals [[extra_s.(i), extra_f.(i))] for [i < extra_len].  The
    caller owns every array; [idx] is cursor scratch of length at least
    [k] whose contents are overwritten.  Passing the query through a
    float array rather than as arguments and a result keeps every float
    unboxed: the walk allocates nothing.  The result is the
    {e earliest} feasible start at or after [after], so it is monotone
    in [after] and can only grow when blockers are added.

    Preconditions (unchecked — this is the hot path): extras are sorted
    by start and contain no zero-length intervals, [Array.length ts >= k],
    [Array.length q >= 2].  The scheduling engine's arena satisfies them
    by construction.  Extras are a union of half-open intervals: cutting
    one into abutting pieces or joining abutting ones into a run does
    not change the result, so the arena keeps each resource's tentative
    intervals coalesced. *)
val earliest_gap_joint_arr :
  t array ->
  k:int ->
  extra_s:float array ->
  extra_f:float array ->
  extra_len:int ->
  idx:int array ->
  q:float array ->
  unit

(** [earliest_gap t ~q] is
    [earliest_gap_joint_arr [|t|] ~k:1 ~extra_len:0 ~q]: the earliest
    slot of [t] alone, walked with one cursor and no extras.  It counts
    as a joint gap probe. *)
val earliest_gap : t -> q:float array -> unit

(** [free_at t ~start ~finish] is [true] when [[start, finish)] intersects
    no busy interval — an independent check used by the validator. *)
val free_at : t -> start:float -> finish:float -> bool

val copy : t -> t
