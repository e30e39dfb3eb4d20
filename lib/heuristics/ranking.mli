(** Task ranks over heterogeneous resources (§4.1).

    Path lengths mix computation and communication, so the paper averages
    both: a task of weight [w] counts as [p * w / sum(1/t_i)] (the time the
    whole platform needs per unit of balanced work) and an edge of volume
    [d] counts as [d * H] where [H] is the harmonic-average link cost.
    Communication costs are {e always} charged — the paper deliberately
    assumes communications cannot be avoided when ranking. *)

(** How to average a task's execution time over heterogeneous processors
    when computing ranks.  The paper (§4.1) derives {!Balanced} — the time
    per unit of perfectly balanced work, [p * w / Σ(1/t_i)], equivalent to
    the harmonic-mean cycle-time; the original HEFT paper uses the
    {!Arithmetic} mean; {!Optimistic} prices every task at the fastest
    processor.  The [ranking] experiment measures the difference. *)
type averaging =
  | Balanced  (** the paper's §4.1 rule (default) *)
  | Arithmetic  (** mean of [w * t_i] — classic HEFT *)
  | Optimistic  (** [w * min t_i] *)

(** How a rank prices a task: [Scaled k] is [w(v) * k], [Averaged (p, s)]
    is [p * w(v) / s] (the {!Balanced} rule with [p] processors of
    aggregate speed [s]), [Per_task c] is [c.(v)]. *)
type task_cost =
  | Scaled of float
  | Averaged of float * float
  | Per_task of float array

(** [bottom_up g ~task ~link] — the one bottom-level loop every upward
    rank runs: [bl(v) = cost(v) + max over (v,u) of (c(v,u) + bl(u))],
    where an edge costs [data * l] under [~link:(Some l)] and nothing
    under [~link:None].  Allocates only the result. *)
val bottom_up :
  Taskgraph.Graph.t -> task:task_cost -> link:float option -> float array

(** [upward ?averaging g plat] — bottom levels: [bl(v) = w̄(v) + max over
    (v,u) of (c̄(v,u) + bl(u))], 0-based at exit tasks' own weight.  The
    HEFT/ILHA priority. *)
val upward : ?averaging:averaging -> Taskgraph.Graph.t -> Platform.t -> float array

(** [downward g plat] — top levels: longest averaged path ending strictly
    before [v]; entry tasks have 0.  Used by CPOP. *)
val downward : Taskgraph.Graph.t -> Platform.t -> float array

(** [upward_min g plat] — bottom levels charging computation at the fastest
    processor's cycle-time and no averaging on edges beyond [avg_link_cost];
    the "minimum partial completion time" static priority used by the PCT
    baseline. *)
val upward_min : Taskgraph.Graph.t -> Platform.t -> float array

(** [static_level g plat] — bottom levels ignoring communication costs
    entirely (GDL's static level). *)
val static_level : Taskgraph.Graph.t -> Platform.t -> float array
