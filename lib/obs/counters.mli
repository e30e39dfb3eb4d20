(** Hot-path counters for the scheduling engine, fault handling, the
    incremental kernel, the online driver and the scheduld daemon.

    The counters form one closed registry, declared once in
    [counters.ml]: each registration gives a counter's JSON key, its
    {!pp} label and its print group, and registration order is the
    order of {!pp}, {!to_list} and the Chrome counter track.  Every
    counter is an integer event count except [backoff_s], the total
    {e simulated} time spent in retry backoff, which has its own float
    slot ({!backoff}, {!backoff_s}).  The meaning of each counter is on
    its [val] below.

    Counting is globally toggleable and off by default.  A bump tests
    that flag first: when disabled, that load-and-branch is all it
    does; when enabled, it adds a domain-local-storage lookup and an
    in-place integer store — no allocation either way, so instrumented
    code can sit inside the innermost loops.

    {b Domains.}  Each domain accumulates into its own domain-local
    state, so parallel sweeps ({!Prelude.Pool}) never contend on shared
    state.  [reset]/[snapshot]/[merge] all act on the {e calling}
    domain's state; the pool snapshots every worker at its barrier and
    [merge]s the snapshots into the spawning domain, which makes
    [--stats] totals independent of the number of jobs. *)

type counter

(** {2 The registry, in print order} *)

(** Candidate (task, processor) pairs priced — by [Engine.price] (and
    the forced place steps built on it) or by a candidate scan, aborted
    ones included. *)
val evaluations : counter

(** Candidates a scan skipped without pricing because a lower bound on
    their finish time already met the incumbent
    ([Engine.schedule_best_among], [Engine.schedule_pending]). *)
val pruned_evaluations : counter

(** Per-(source, destination) route/busy-set lookups served from the
    engine's cache instead of recomputing [Platform.route] and the port
    busy sets. *)
val route_cache_hits : counter

(** Earliest-gap searches ([Timeline.earliest_gap_joint_arr]), over one
    timeline or jointly over several (one-port). *)
val joint_gap_probes : counter

(** Communication hops planned during evaluation (most are discarded —
    only the winning processor's hops commit). *)
val tentative_hops : counter

(** Candidates actually committed, whole tasks and duplicate copies
    alike (the engine's commit log entries). *)
val commits : counter

(** Whole-schedule copies ([Schedule.copy] — the cost of ILHA's
    reschedule variant and of the improvers). *)
val copies : counter

(** Priced candidates whose pricing a scan stopped early, once the
    inputs priced so far already put their finish time at or past the
    incumbent's (port regime only); each is also counted in
    [evaluations], so [evaluations + pruned_evaluations] stays the
    number of candidates scanned. *)
val aborted_evaluations : counter

(** Communication hops re-executed after a transient failure
    ([Simkit.Faulty_executor], [Online.Driver]). *)
val retries : counter

(** Tasks re-mapped by the online repair pass ([Heuristics.Repair]). *)
val repairs : counter

(* [backoff_s] is registered here, between [repairs] and [rollbacks];
   it is bumped by {!backoff} and read by {!backoff_s}. *)

(** Whole-schedule rewinds ([Engine.rewind]). *)
val rollbacks : counter

(** Tasks re-committed by a prefix-replay rebuild (the suffix work an
    incremental move actually pays for). *)
val replayed_tasks : counter

(** Branch-and-bound nodes cut by the incumbent bound in
    [Search.best_schedule]. *)
val search_pruned_nodes : counter

(** Suffix re-plans of the rolling-horizon driver ([Online.Driver])
    triggered by arrivals, failures, rejoins or predicted deadline
    misses. *)
val replans : counter

(** Pending jobs dropped by graceful degradation to protect a
    higher-priority deadline. *)
val shed_jobs : counter

(** Executed-prefix tasks whose decisions a re-plan kept verbatim
    (summed over re-plans). *)
val frozen_tasks : counter

(** Jobs that completed after their deadline (or were shed while
    holding one). *)
val deadline_misses : counter

(** Protocol request lines processed by [Server.Scheduld], malformed
    ones answered with an error reply included. *)
val requests : counter

(** Coalesced re-plans — each one schedules a whole batch of queued
    submissions in a single pass. *)
val batched_replans : counter

(** Submissions admitted to the daemon's backlog. *)
val queued_jobs : counter

(** {2 Bump sites} — no-ops while disabled. *)

val bump : counter -> unit

(** [backoff dt] accumulates [dt] simulated time units of retry
    backoff. *)
val backoff : float -> unit

(** {2 Readings} *)

(** An immutable reading of all counters. *)
type snapshot

val zero : snapshot

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Reset all counters to zero (independent of the enabled flag). *)
val reset : unit -> unit

val snapshot : unit -> snapshot
val get : snapshot -> counter -> int

(** Total simulated retry backoff, in simulated time units. *)
val backoff_s : snapshot -> float

(** Every registered counter as (JSON key, value), in registry order. *)
val to_list : snapshot -> (string * float) list

(** [diff before after] — per-counter [after - before]. *)
val diff : snapshot -> snapshot -> snapshot

(** [merge d] adds every counter of [d] into the calling domain's
    counters (independent of the enabled flag).  Used by
    {!Prelude.Pool} to fold worker-domain counts into the spawning
    domain at the barrier; counters are monotonic event counts, so the
    merged totals equal a serial run's regardless of sharding. *)
val merge : snapshot -> unit

(** One line per counter, in registry order, inside one vertical box:
    [label ^ ":"] padded to 17 columns, then the value.  The base group
    (evaluations … copies) always prints; each later group (aborted,
    fault, incremental, online, daemon) prints only when one of its
    members is nonzero.  The output is part of the CLI contract (cram
    tests and perfbench parse it). *)
val pp : Format.formatter -> snapshot -> unit
