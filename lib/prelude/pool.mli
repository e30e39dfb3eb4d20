(** Work-stealing domain pool for embarrassingly parallel sweeps.

    The evaluation grids of {!Experiments.Batch} and the Monte-Carlo
    replays of {!Simkit.Robustness} are "run [n] independent cells"
    workloads.  [iter] fans a cell-index
    range out over OCaml 5 domains: each worker owns a deque of
    contiguous indices (one atomic int packing the [lo, hi) range, so a
    chunked front-take by the owner and a back-half steal by an idle
    thief are both single CAS operations), and the spawning domain
    participates as a worker, so [jobs = 1] never spawns a domain and
    degrades to the plain serial loop.

    {b Determinism.}  The pool schedules {e which domain} runs a cell,
    never {e what} a cell computes: callers index results by cell, and
    any per-cell randomness must come from a pre-split {!Rng} stream.
    Under that discipline the output is byte-identical for any [jobs]
    — the property the test harness pins down.

    {b Observability.}  {!Obs.Counters} accumulate in domain-local
    scratch; at the barrier every worker's snapshot is
    {!Obs.Counters.merge}d into the spawning domain, so [--stats]
    totals are independent of [jobs].  Spans ({!Obs.Span}) are only
    recorded by the main domain.

    {b Exceptions.}  The first exception raised by any worker is
    captured with its backtrace, the sweep is cancelled (workers stop
    at the next chunk boundary), and the exception is re-raised in the
    calling domain after the barrier. *)

(** Default job count: [Domain.recommended_domain_count ()], capped at
    8 — evaluation cells are cache-hungry and the grids are short
    enough that more domains only add merge latency. *)
val default_jobs : unit -> int

(** [iter ?jobs n f] runs [f 0 .. f (n-1)], sharded over [jobs] domains
    ([default_jobs ()] when omitted; clamped to 64).  [f] must be safe
    to run from any domain and must only write to cell-indexed state.
    @raise Invalid_argument if [jobs < 1], [n < 0] or [n >= 2^30]. *)
val iter : ?jobs:int -> int -> (int -> unit) -> unit

(** [map ?jobs f l] — parallel [List.map f l]; order is preserved and
    worker exceptions propagate. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** Persistent helper team for short, frequent parallel regions.

    {!iter} spawns domains per call — fine for sweeps, too slow for the
    millisecond batches of [Server.Scheduld] ([schedcli serve --jobs]).
    A team parks long-lived helper domains on a condition variable;
    {!Team.run} publishes an index range, wakes them, and waits at a
    barrier while the caller participates as worker 0.

    The split is {e static}: worker [k] of [w] owns
    [\[k*n/w, (k+1)*n/w)], so which worker computes an index depends only
    on [(jobs, n)] — callers that write results into cell-indexed slots
    get byte-identical output at any team size.  Helper counter
    increments are merged into the caller's domain at the barrier. *)
module Team : sig
  type t

  (** [create ~helpers] spawns [helpers] parked domains (the caller makes
      it [helpers + 1] workers).
      @raise Invalid_argument on a negative count. *)
  val create : helpers:int -> t

  (** [run t ~jobs ~n f] applies [f ~worker i] for [i] in [0, n),
      sharded statically over [min jobs (helpers + 1)] workers; [worker]
      is the worker index (0 = caller), which callers use to select
      per-worker scratch.
      Serial (caller-only) when the effective worker count is 1.  The
      first exception from any worker is re-raised after the barrier.
      Not reentrant: [f] must not call [run] on the same team. *)
  val run : t -> jobs:int -> n:int -> (worker:int -> int -> unit) -> unit

  (** [stop t] wakes and joins every helper; further [run]s are an
      error. *)
  val stop : t -> unit
end
