(** Per-processor resource state under a communication model.

    Each processor owns a compute timeline plus port timelines whose
    meaning depends on the model's port discipline:

    - {e macro-dataflow}: ports are never busy — a message occupies no
      resource;
    - {e bi-directional one-port}: a send port and an independent receive
      port;
    - {e uni-directional one-port}: one physical port serves both
      directions.

    The [*_busy] functions return exactly the set of distinct timelines a
    message must find jointly free (and that a commit must mark busy), so
    heuristics and the schedule builder share one source of truth for the
    port rules — including the no-overlap variants, where the compute
    timeline joins the set.

    Every distinct timeline additionally carries a {e stable resource
    id}: a small integer, unique per physical timeline, fixed for the
    life of the resource set (and preserved by {!copy}).  Two timelines
    are physically equal iff their ids are equal — under the
    uni-directional discipline a processor's send and receive port share
    one id.  The scheduling engine keys its tentative-interval arena by
    these ids instead of scanning for physical equality. *)

type t

val create : model:Commmodel.Comm_model.t -> p:int -> t
val model : t -> Commmodel.Comm_model.t
val p : t -> int

(** The compute timeline of processor [i] (tasks, plus communications under
    no-overlap models). *)
val compute : t -> int -> Prelude.Timeline.t

(** Stable id of processor [i]'s compute timeline. *)
val compute_id : t -> int -> int

(** Exclusive upper bound on every id handed out so far; grows as
    link-contention timelines are lazily created, so an id-indexed cache
    sized to [id_bound] must be prepared to grow. *)
val id_bound : t -> int

(** Distinct timelines the {e sending} side of a message out of processor
    [i] occupies (possibly empty under macro-dataflow). *)
val send_busy : t -> int -> Prelude.Timeline.t list

(** Distinct timelines the {e receiving} side of a message into processor
    [i] occupies. *)
val recv_busy : t -> int -> Prelude.Timeline.t list

(** {!send_busy} / {!recv_busy} with each timeline paired with its stable
    resource id — the form the engine's caches store. *)
val send_busy_ids : t -> int -> (Prelude.Timeline.t * int) list

val recv_busy_ids : t -> int -> (Prelude.Timeline.t * int) list

(** The joint busy set of a BSP communication phase: the platform-wide
    barrier timeline plus {e every} processor's compute timeline — a
    phase excludes computation everywhere and phases never overlap.
    @raise Invalid_argument outside the BSP regime. *)
val phase_busy : t -> Prelude.Timeline.t list

(** {!phase_busy} with stable resource ids (barrier first). *)
val phase_busy_ids : t -> (Prelude.Timeline.t * int) list

(** [commit_phase t ~start ~finish] marks a BSP comm phase busy on
    {!phase_busy}; [retract_phase] is its exact inverse.
    @raise Invalid_argument outside the BSP regime, or (like
    {!commit_comm}) on an overlapping or absent interval. *)
val commit_phase : t -> start:float -> finish:float -> unit

val retract_phase : t -> start:float -> finish:float -> unit

(** [link t ~src ~dst] — the shared timeline of the {e undirected direct
    link} between [src] and [dst], lazily created; only meaningful (and
    only occupied) under link-contention models, where a link carries one
    message at a time regardless of direction. *)
val link : t -> src:int -> dst:int -> Prelude.Timeline.t

(** [comm_busy t ~src ~dst] is the union of {!send_busy} on [src] and
    {!recv_busy} on [dst] — plus the {!link} timeline under
    link-contention models — the joint busy set of a direct hop. *)
val comm_busy : t -> src:int -> dst:int -> Prelude.Timeline.t list

(** [comm_busy_ids t ~src ~dst] is {!comm_busy} with each timeline paired
    with its stable resource id — the form the engine's route cache
    stores.  Under link-contention models this (like {!comm_busy})
    lazily creates the link timeline, which may advance {!id_bound}. *)
val comm_busy_ids :
  t -> src:int -> dst:int -> (Prelude.Timeline.t * int) list

(** [commit_comm t ~src ~dst ~start ~finish] marks a hop's {e occupancy}
    busy, which depends on the model's regime: the whole span on
    [comm_busy] under the port regimes; nothing under BSP (the enclosing
    phase owns the resources); only the endpoint overhead sub-intervals
    — [\[start, start+o)] on the sender's ports, [\[finish-o, finish)] on
    the receiver's — under latency+overhead.
    @raise Invalid_argument if any timeline already overlaps (a scheduling
    bug — slots must come from gap search over the same busy set). *)
val commit_comm : t -> src:int -> dst:int -> start:float -> finish:float -> unit

(** [commit_task t ~proc ~start ~finish] marks the compute timeline busy. *)
val commit_task : t -> proc:int -> start:float -> finish:float -> unit

(** [retract_comm t ~src ~dst ~start ~finish] is the exact inverse of
    {!commit_comm}: the hop's interval is removed from every timeline of
    [comm_busy].
    @raise Invalid_argument if the interval is not present (retracting
    something that was never committed is a scheduling bug). *)
val retract_comm :
  t -> src:int -> dst:int -> start:float -> finish:float -> unit

(** [retract_task t ~proc ~start ~finish] is the exact inverse of
    {!commit_task}. *)
val retract_task : t -> proc:int -> start:float -> finish:float -> unit

(** Deep copy (preserving the send/recv port sharing of uni-directional
    models); mutating the copy leaves the original untouched. *)
val copy : t -> t
