(** Fault scenarios injected into schedule execution.

    Static schedules assume the platform of §2.1 behaves: every processor
    survives, every message arrives.  A fault scenario breaks exactly one
    of those assumptions and {!Faulty_executor} replays a schedule's
    decisions under it:

    - {!Crash}: a fail-stop processor crash — the compute element dies
      at time [at] and never recovers.  Tasks that finish strictly
      before the crash are durable (outputs checkpointed on completion),
      so the dead node's data can still be {e fetched} through its
      ports; anything computing at or after [at] is lost;
    - {!Outage}: a transient blackout [[from_, until)] — work already
      running rides through, but nothing new is dispatched on the
      processor (compute or ports) inside the window;
    - {!Degrade}: every communication touching the processor's ports is
      slowed by a multiplicative [factor] (a flaky NIC, a congested
      uplink);
    - {!Flaky}: each communication hop independently fails with
      probability [prob] per attempt and is retried with exponential
      backoff ([backoff], [2*backoff], [4*backoff], …) up to
      [max_retries] times; a hop that exhausts its retries is lost for
      good and strands its dependents;
    - {!Rejoin}: a previously crashed processor comes back at time [at]
      with empty state.  Work stranded by the crash does {e not} resume
      silently — a rejoined processor only receives work through an
      explicit repair or re-plan decision (see [lib/online]).

    Specs are parsed from compact strings (the [--fault] grammar of
    [schedcli robustness], see [doc/robustness.md]):

    {v
    crash:2@120        processor 2 dies at t = 120
    crash:2@25%        … at 25% of the schedule's nominal makespan
    outage:0@50-80     processor 0 blacks out over [50, 80)
    degrade:1x2.5      communications touching processor 1 take 2.5x
    flaky:0.05         hops fail with probability 5% (3 retries, backoff 1)
    flaky:0.05:6:0.5   … with 6 retries starting at backoff 0.5
    rejoin:2@180       processor 2 comes back at t = 180
    v}

    Times may be absolute or makespan-relative ([25%]); a {!spec} holds
    the unresolved form and {!resolve} pins it against a concrete
    nominal makespan. *)

type t =
  | Crash of { proc : int; at : float }
  | Outage of { proc : int; from_ : float; until : float }
  | Degrade of { proc : int; factor : float }
  | Flaky of { prob : float; max_retries : int; backoff : float }
  | Rejoin of { proc : int; at : float }

(** A fault whose times may still be makespan-relative. *)
type spec

(** [of_string s] parses the [--fault] grammar above.
    @raise Invalid_argument with a grammar reminder on malformed input. *)
val of_string : string -> spec

(** [resolve ~makespan spec] pins relative times ([25%] of [makespan])
    to absolute ones.
    @raise Invalid_argument if [makespan <= 0] and the spec is
    relative. *)
val resolve : makespan:float -> spec -> t

(** [crash ~proc ~at], [flaky ?max_retries ?backoff prob] — direct
    constructors for programmatic use ([max_retries] defaults to 3,
    [backoff] to 1 simulated time unit). *)
val crash : proc:int -> at:float -> t

val flaky : ?max_retries:int -> ?backoff:float -> float -> t

(** [validate ~p fault] checks processor indices against a platform of
    [p] processors and value ranges (probabilities in [0, 1], factors
    and windows positive, a flaky retry budget whose last pause
    [backoff * 2^max_retries] is finite).
    @raise Invalid_argument on the first violation. *)
val validate : p:int -> t -> unit

(** Round-trips through {!of_string} for absolute-time faults. *)
val to_string : t -> string

(** Prints the unresolved form — relative times keep their [%] suffix —
    such that [of_string (spec_to_string s)] parses back to [s]. *)
val spec_to_string : spec -> string

val pp : Format.formatter -> t -> unit
