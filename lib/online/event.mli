(** Events consumed by the rolling-horizon online driver.

    An event trace is the workload of a {e live} scheduling service: jobs
    (whole task graphs from the §5 testbeds) arriving over time, and
    processors failing, blacking out and rejoining underneath the running
    schedule.  {!Driver.run} consumes a trace in time order and re-plans
    the un-executed suffix after each disruption (see [doc/online.md]).

    Traces are plain text, one event per line ([#] starts a comment):

    {v
    # a 100-task LU job with ccr 0.5, priority 2, deadline 300 after arrival
    arrive 0 lu:100:0.5 prio=2 deadline=300
    crash 120 1          # processor 1 fail-stops at t = 120
    down 200 2           # processor 2 starts a transient outage
    rejoin 260 2         # ... and comes back at t = 260
    v}

    Times are absolute simulated time, non-negative.  [prio] ranks jobs
    for graceful degradation (higher = more important, default 0);
    [deadline] is {e relative to the arrival time}.  {!of_string} /
    {!to_string} round-trip ([to_string] uses [%g], so times that print
    exactly — e.g. quarter-integers — survive unchanged; this is
    property-tested). *)

type job = {
  testbed : string;  (** a {!Testbeds.Suite} name, e.g. ["lu"] *)
  n : int;  (** problem size passed to the testbed builder *)
  ccr : float;  (** communication-to-computation ratio (default 1) *)
  priority : int;  (** degradation rank, higher = more important *)
  deadline : float option;  (** relative to the arrival instant *)
}

type kind =
  | Arrive of job
  | Crash of int  (** fail-stop: the processor is gone until a rejoin *)
  | Down of int
      (** transient outage: the driver retries with exponential backoff
          before declaring the processor dead *)
  | Rejoin of int  (** the processor comes back with empty state *)

type t = { at : float; kind : kind }

(** [job ?ccr ?priority ?deadline testbed n] — a job spec with the
    defaults above.
    @raise Invalid_argument on a non-positive size or deadline, or a
    negative ccr. *)
val job : ?ccr:float -> ?priority:int -> ?deadline:float -> string -> int -> job

(** One-line help string for the trace grammar. *)
val grammar : string

(** [job_of_spec spec] parses a bare job spec ([TESTBED:N[:CCR]],
    including [layered:L:W:N[:CCR]]) with no trailing options — the form
    [scheduld] submissions use.
    @raise Invalid_argument on a malformed spec. *)
val job_of_spec : string -> job

(** The spec part of {!to_string} alone, with no [prio=]/[deadline=]
    options; [job_of_spec (spec_of_job j)] recovers the job's testbed,
    size and (exactly-printing) ccr. *)
val spec_of_job : job -> string

(** [of_string line] parses one event line.
    @raise Invalid_argument with a grammar reminder on malformed input. *)
val of_string : string -> t

(** Round-trips through {!of_string}. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** [of_trace_string text] parses a whole trace, skipping blank and [#]
    comment lines. *)
val of_trace_string : string -> t list

val to_trace_string : t list -> string
val load : string -> t list
val save : string -> t list -> unit

(** Stable sort by event time; same-time events keep their input order. *)
val sort : t list -> t list

(** [poisson ~rng ~rate ~count job] — [count] arrivals of [job] with
    i.i.d. exponential inter-arrival times of rate [rate] (mean gap
    [1/rate]), starting from time 0.  Deterministic for a given [rng].
    @raise Invalid_argument on a non-positive rate or negative count. *)
val poisson : rng:Prelude.Rng.t -> rate:float -> count:int -> job -> t list

(** [bursty ~rng ~rate ~burst ~count job] — arrivals come in bursts of
    [burst] simultaneous jobs at Poisson epochs of rate [rate], until
    [count] jobs have been emitted. *)
val bursty :
  rng:Prelude.Rng.t -> rate:float -> burst:int -> count:int -> job -> t list

(** Translate an absolute-time fault into trace events: a crash maps to
    [Crash], a rejoin to [Rejoin], and an outage window to [Down] at its
    start plus [Rejoin] at its end ([infinity] ends emit no rejoin).
    @raise Invalid_argument for [Degrade]/[Flaky], which have no
    event-trace counterpart. *)
val of_fault : Simkit.Fault.t -> t list
