(** The typed scheduler-parameter record every heuristic accepts.

    One value of {!t} carries everything a scheduler run depends on
    besides the platform and the graph: the communication model, the
    engine's slot-search policy, HEFT's rank-averaging rule, and ILHA's
    chunk size / scan / reschedule knobs.  Heuristics read the fields
    they care about and ignore the rest, so the registry exposes a
    single uniform scheduler type

    {[ Params.t -> Platform.t -> Taskgraph.Graph.t -> Sched.Schedule.t ]}

    with no per-heuristic escape hatches.  {!default} is the paper's
    setting (bi-directional one-port, insertion-based slots, balanced
    averaging, platform-default chunk); use {!make} or the [with_*]
    updaters to deviate. *)

(** ILHA's placement scans (§4.4): the paper's zero-communication scan
    alone, or followed by a scan accepting single-communication
    placements. *)
type scan = Scan_zero_comm | Scan_one_comm

type t = {
  model : Commmodel.Comm_model.t;  (** default [one_port] *)
  policy : Engine.policy;  (** default [Insertion] *)
  averaging : Ranking.averaging;
      (** HEFT's rank-averaging rule; default [Balanced] (§4.1) *)
  b : int option;
      (** ILHA chunk size; [None] = the platform's perfect-balance
          chunk ({!Ilha.default_b}) *)
  scan : scan;  (** default [Scan_zero_comm] *)
  reschedule : bool;  (** ILHA's §4.4 third step; default [false] *)
  candidates : int list option;
      (** ilha-auto's chunk ladder; [None] = {!Auto_b.candidates} *)
  dup_limit : int;
      (** maximum duplicate copies a duplication-aware heuristic may add
          per scheduling decision (default 0 = duplication off; heft-dup
          treats 0 as "one duplication per decision").  Ignored by the
          single-copy heuristics. *)
}

val default : t

(** [make ()] = {!default}; each argument overrides one field. *)
val make :
  ?model:Commmodel.Comm_model.t ->
  ?policy:Engine.policy ->
  ?averaging:Ranking.averaging ->
  ?b:int ->
  ?scan:scan ->
  ?reschedule:bool ->
  ?candidates:int list ->
  ?dup_limit:int ->
  unit ->
  t

val of_model : Commmodel.Comm_model.t -> t
val with_model : t -> Commmodel.Comm_model.t -> t
val with_policy : t -> Engine.policy -> t
val with_averaging : t -> Ranking.averaging -> t
val with_b : t -> int option -> t
val with_scan : t -> scan -> t
val with_reschedule : t -> bool -> t

(** @raise Invalid_argument when [dup_limit < 0]. *)
val with_dup_limit : t -> int -> t

(** Compact label of the non-default fields, e.g. ["b=4,scan=1comm"];
    [""] for {!default}.  Used in experiment rows and traces. *)
val to_string : t -> string
