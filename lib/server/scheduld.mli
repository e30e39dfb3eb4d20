(** [scheduld] — the scheduler-as-a-service daemon.

    The paper's heuristic prices one placement decision in microseconds,
    so a long-running service can afford to re-plan on every request
    burst.  This module packages the library as such a service: clients
    submit whole task graphs over a newline-delimited JSON protocol
    ({!Proto}), the daemon schedules them on warm per-platform state and
    streams placement/completion events back.

    The implementation is split in two layers:

    - a {e pure core} ({!t}): a deterministic state machine fed one
      protocol line at a time ({!input}) and advanced by explicit batch
      {!flush}es, with all output collected through {!take_outputs}.
      Time only enters through the injectable [clock], so tests drive
      the whole daemon in-memory over a loopback with zero sockets and
      byte-reproducible transcripts;
    - a {e transport shell} ({!serve}): a single-threaded
      [Unix.select] event loop owning the listening socket, per-client
      line buffering and the flush decision.  Single-threaded on
      purpose — requests are serialized into a deterministic order, and
      the parallelism lives inside a batch flush, where a persistent
      {!Prelude.Pool} schedules the batch's jobs across domains (one
      whole job per claimed cell; each job's result lands in its own
      slot, whichever domain runs it, so placements are byte-identical
      at any [jobs]; worker counters merge at the barrier).

    {b Batching.}  Submissions are queued, not scheduled inline.  The
    shell flushes as soon as the backlog cannot grow right now: once
    it has read every connection with input waiting and a zero-timeout
    poll finds nothing more, it re-plans the whole backlog ({!flush},
    up to [max_batch] jobs per parallel pass).  So a lone submission
    runs at once, and everything that arrived while the previous batch
    was being priced lands in the next one.  The backlog also runs
    when it reaches [max_batch], when draining, and at the latest
    [batch_window] seconds after its first job arrived: input that
    never pauses cannot hold it forever.

    Admission control: a full queue sheds a queued job rather than
    refusing, chosen by the victim rule it shares with the online
    driver ({!Online.Admission.shed_victim}: the lowest priority
    strictly below the newcomer, the newest among equals); a
    [replan_budget] caps the number of batches, and drain mode refuses
    new work while finishing the backlog.

    Protocol grammar, failure replies and the determinism contract are
    documented in [doc/scheduld.md]. *)

type config = {
  params : Heuristics.Params.t;  (** default scheduling parameters *)
  heuristic : string;  (** registry default when a submit names none *)
  jobs : int;
      (** domains for a batch flush (1 = serial, no helper domain;
          clamped to {!Prelude.Pool.max_jobs}) *)
  max_batch : int;  (** jobs coalesced into one re-plan *)
  queue_cap : int;  (** backlog bound; beyond it, shed or refuse *)
  replan_budget : int;  (** max batches before [Budget] errors *)
  batch_window : float;
      (** upper bound, in seconds, on how long the shell lets a pending
          job wait for more input before flushing *)
}

(** heft, one-port, serial, [max_batch = 16], [queue_cap = 64],
    unlimited budget, 20 ms window bound.  Every schedule is checked
    with {!Sched.Validate}. *)
val default_config : config

(** {1 The pure core} *)

type t

(** [create ?config ?clock platform] — warm state for one platform.
    [clock] (default [Unix.gettimeofday]) timestamps submissions for
    the service-latency percentiles; inject a fake for deterministic
    stats.
    @raise Invalid_argument on a nonsensical config (non-positive
    [jobs], [max_batch] or [queue_cap], a negative [batch_window], or
    an unknown [heuristic]). *)
val create : ?config:config -> ?clock:(unit -> float) -> Platform.t -> t

val config : t -> config

(** [connect t] registers a client and returns its id. *)
val connect : t -> int

(** [input t ~client line] feeds one protocol line.  Total: malformed
    input produces an [Error] reply in the outbox, never an
    exception. *)
val input : t -> client:int -> string -> unit

(** [flush t] runs one batch re-plan over up to [max_batch] queued
    jobs and emits their [Placed]/[Done] (or [Failed]) events; when
    draining and the backlog is empty it broadcasts [Bye] and stops
    the core.  Returns the number of jobs scheduled. *)
val flush : t -> int

(** Queued jobs awaiting a flush. *)
val pending : t -> int

(** [drain t] — refuse new submissions; the next {!flush}es finish
    the backlog and stop the core (idempotent; what a [Drain] request
    or SIGINT/SIGTERM triggers). *)
val drain : t -> unit

val draining : t -> bool
val stopped : t -> bool

(** Drain the outbox: [(client, line)] in emission order. *)
val take_outputs : t -> (int * string) list

(** Current {!Proto.stats_view} (what a [Stats] request replies). *)
val stats : t -> Proto.stats_view

(** Stop the pool's helper domains (idempotent).  The core is unusable after. *)
val shutdown : t -> unit

(** {1 The transport shell} *)

type endpoint = Unix_path of string | Tcp of int  (** loopback TCP *)

val endpoint_to_string : endpoint -> string

(** [serve ?config ?clock ?ready endpoint platform] — bind, call
    [ready ()] once listening, and run the select loop until a [Drain]
    request or SIGINT/SIGTERM drains the backlog.  Returns the final
    {!Proto.stats_view}.
    @raise Failure when the endpoint is already bound by a live daemon
    (a stale Unix-socket file left by a crash is unlinked and
    reclaimed). *)
val serve :
  ?config:config ->
  ?clock:(unit -> float) ->
  ?ready:(unit -> unit) ->
  endpoint ->
  Platform.t ->
  Proto.stats_view
