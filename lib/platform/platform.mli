(** Target computing resources: processors and the interconnect.

    A platform is the paper's [P = (P, t, link)] (§2.1): [p] processors with
    cycle-times [t_i] (the time to execute one unit of task weight — the
    inverse of relative speed), and a [link] matrix giving the time to ship
    one data item between each processor pair (zero diagonal).

    The interconnect may additionally carry a sparse {e topology}: when two
    processors have no direct link, messages are routed along a fixed
    shortest path of direct links (§4.3 notes the one-port machinery extends
    to routed messages hop by hop).  Fully-connected platforms — the paper's
    experimental setting — have single-hop routes everywhere. *)

type t

(** [create ?name ~cycle_times ~link ()] — [link] must be square of size
    [p], zero on the diagonal, non-negative elsewhere.
    @raise Invalid_argument otherwise. *)
val create : ?name:string -> cycle_times:float array -> link:float array array -> unit -> t

(** [fully_connected ?name ~cycle_times ~link_cost ()] — uniform off-diagonal
    link cost. *)
val fully_connected :
  ?name:string -> cycle_times:float array -> link_cost:float -> unit -> t

(** [homogeneous ~p ~link_cost] — [p] unit-speed processors. *)
val homogeneous : p:int -> link_cost:float -> t

(** The experimental platform of §5.2: five processors of cycle-time 6,
    three of cycle-time 10, two of cycle-time 15, fully connected with unit
    link cost (communication volumes already carry the ratio [c]). *)
val paper_platform : unit -> t

(** [with_topology ?name ~cycle_times ~links ()] — sparse interconnect given
    as undirected direct links [(i, j, cost)]; missing pairs are routed over
    the cheapest path (Floyd–Warshall) and [route] reports the hop
    sequence.
    @raise Invalid_argument if the link graph is disconnected. *)
val with_topology :
  ?name:string -> cycle_times:float array -> links:(int * int * float) list -> unit -> t

(** [ring ~cycle_times ~link_cost ()] — processors in a cycle; messages
    between non-neighbours are routed around the shorter arc. *)
val ring : cycle_times:float array -> link_cost:float -> unit -> t

(** [star ~cycle_times ~spoke_cost ()] — processor 0 is the hub; every
    other processor links only to it, so peripheral pairs route through
    the hub (two hops) and contend for its ports under one-port models. *)
val star : cycle_times:float array -> spoke_cost:float -> unit -> t

(** [grid2d ~rows ~cols ~cycle_time ~link_cost ()] — a [rows x cols] mesh
    of identical processors with 4-neighbour links (the classical
    mesh-connected multicomputer).
    @raise Invalid_argument when [rows * cols < 1]. *)
val grid2d : rows:int -> cols:int -> cycle_time:float -> link_cost:float -> unit -> t

(** [random_heterogeneous rng ~p ~min_cycle ~max_cycle ~link_cost] —
    fully-connected platform with integer cycle-times drawn uniformly from
    [[min_cycle, max_cycle]] (integer so {!val:Heuristics} perfect-balance
    chunks stay defined); deterministic in [rng]. *)
val random_heterogeneous :
  Prelude.Rng.t -> p:int -> min_cycle:int -> max_cycle:int -> link_cost:float -> t

val name : t -> string

(** Number of processors. *)
val p : t -> int

val cycle_time : t -> int -> float
val cycle_times : t -> float array

(** [link t ~src ~dst] is the per-data-item cost of the {e route} from
    [src] to [dst] (sum of hop costs for routed platforms). *)
val link : t -> src:int -> dst:int -> float

(** [route t ~src ~dst] is the sequence of direct hops [(q, r)] a message
    follows; [[ (src, dst) ]] on fully-connected platforms and [[]] when
    [src = dst]. *)
val route : t -> src:int -> dst:int -> (int * int) list

(** [next_hop t ~src ~dst] is the processor the first hop of
    [route t ~src ~dst] reaches, without building the route; [-1] when
    [src = dst]. *)
val next_hop : t -> src:int -> dst:int -> int

(** [hop_cost t ~src ~dst] is the per-item cost of the {e direct} link used
    by one hop.
    @raise Invalid_argument when no direct link exists. *)
val hop_cost : t -> src:int -> dst:int -> float

(** Fastest (minimum) cycle-time; the paper's sequential baseline. *)
val min_cycle_time : t -> float

(** [aggregate_speed t] is [sum over i of 1 / t_i]: the work per time-unit
    of the whole platform under perfect load balance (§4.1). *)
val aggregate_speed : t -> float

(** Fraction of total work processor [i] should receive under perfect load
    balance: [c_i = (1/t_i) / aggregate_speed] (§4.1). *)
val balanced_fraction : t -> int -> float

(** Harmonic-average link cost over ordered pairs [q <> r]; the paper's
    rank averaging replaces [link(q,r)] by this quantity (§4.1). *)
val avg_link_cost : t -> float

(** [avg_execution_time t w] is the paper's averaged execution estimate
    [p * w / sum(1/t_i)] used in bottom levels (§4.1). *)
val avg_execution_time : t -> float -> float

(** Maximum achievable speedup versus the fastest processor assuming
    perfect balance and free communication: [min_cycle_time * aggregate_speed]
    — 7.6 on the paper platform (§5.2). *)
val speedup_bound : t -> float

val pp : Format.formatter -> t -> unit

(** {2 Plain-text descriptions}

    Line-oriented, [#] comments.  One [cycle-times] line, then the
    interconnect as either a uniform [link-cost c] (fully connected), a
    set of [link i j c] lines (sparse topology, routed), or explicit
    [row c0 c1 ...] lines forming the full link matrix:

    {v
    platform my-cluster
    cycle-times 6 6 6 6 6 10 10 10 15 15
    link-cost 1
    v} *)

(** @raise Invalid_argument with a line-numbered message on malformed
    input. *)
val of_description : string -> t

(** Emits the matrix ([row]) form — {!of_description} inverts it for any
    platform. *)
val to_description : t -> string
