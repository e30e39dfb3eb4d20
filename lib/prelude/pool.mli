(** One domain pool for embarrassingly parallel index sweeps.

    The evaluation grids of {!Experiments.Batch}, the Monte-Carlo
    replays of {!Simkit.Robustness} and the batch flushes of
    [Server.Scheduld] are "run [n] independent cells" workloads.  A pool
    parks [jobs - 1] helper domains; {!run} wakes them and works
    alongside them as worker 0.  Every worker claims chunks of
    [max 1 (n / (8 * jobs))] indices from one shared atomic counter, so
    a worker that drew cheap cells simply claims more.  [jobs = 1]
    never spawns a domain and degrades to the plain serial loop.

    {b Domain cap.}  [jobs] is clamped to {!max_jobs} (64), below the
    OCaml 5 runtime's limit on live domains.

    {b Determinism.}  The pool schedules {e which domain} runs a cell,
    never {e what} a cell computes: callers index results by cell, and
    any per-cell randomness must come from a pre-split {!Rng} stream.
    Under that discipline the output is byte-identical for any [jobs]
    — the property the test harness pins down.

    {b Observability.}  {!Obs.Counters} accumulate in domain-local
    scratch; at the barrier every helper's snapshot is
    {!Obs.Counters.merge}d into the calling domain, so [--stats] totals
    are independent of [jobs].  Spans ({!Obs.Span}) are only recorded by
    the main domain.

    {b Exceptions.}  The first exception raised by any worker is
    captured with its backtrace, the run is cancelled (workers stop at
    the next chunk boundary), and the exception is re-raised in the
    calling domain after the barrier. *)

(** The most domains a pool uses, its caller included. *)
val max_jobs : int

(** Default job count: [Domain.recommended_domain_count ()], capped at
    8 — evaluation cells are cache-hungry and the grids are short
    enough that more domains only add merge latency. *)
val default_jobs : unit -> int

type t

(** [create ~jobs] parks [min jobs max_jobs - 1] helper domains.
    @raise Invalid_argument if [jobs < 1]. *)
val create : jobs:int -> t

(** [run t n f] runs [f 0 .. f (n-1)] over the pool's workers.  [f] must
    be safe to run from any domain and must only write to cell-indexed
    state.  Serial (caller-only) when the pool has no helpers or
    [n <= 1].  Not reentrant: [f] must not call [run] on the same pool.
    @raise Invalid_argument if [n < 0] or the pool is stopped. *)
val run : t -> int -> (int -> unit) -> unit

(** [stop t] wakes and joins every helper; stopping twice is harmless,
    and a later {!run} is an error. *)
val stop : t -> unit

(** [iter ?jobs n f] is {!run} on a pool made and stopped around the
    call, with [jobs] defaulting to [default_jobs ()].  [jobs = 1] or
    [n <= 1] is the plain serial loop.
    @raise Invalid_argument if [jobs < 1] or [n < 0]. *)
val iter : ?jobs:int -> int -> (int -> unit) -> unit
