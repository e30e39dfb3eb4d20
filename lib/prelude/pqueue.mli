(** Binary-heap priority queue (min-heap under a user ordering).

    Used by the list schedulers for the ready set and by the event
    simulator for its event queue.  Ties are resolved by the comparison
    function itself, so callers embed their tie-breaking rule in [compare]
    (the schedulers compare [(priority, task id)] pairs to stay
    deterministic). *)

type 'a t

(** [create ~compare] is an empty queue; the minimum element according to
    [compare] is served first. *)
val create : compare:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val add : 'a t -> 'a -> unit

(** [peek q] returns the minimum without removing it. *)
val peek : 'a t -> 'a option

(** [pop q] removes and returns the minimum. *)
val pop : 'a t -> 'a option

(** [pop_exn q]
    @raise Invalid_argument on an empty queue. *)
val pop_exn : 'a t -> 'a

val of_list : compare:('a -> 'a -> int) -> 'a list -> 'a t

(** [to_sorted_list q] drains a copy of [q] in priority order. *)
val to_sorted_list : 'a t -> 'a list

(** Monomorphic heap of non-negative ints served in the list
    schedulers' priority order, read straight from their float ranks:
    [rank] descending under [Float.compare], then the int ascending.
    [Float.compare] on two unboxed array reads is inlined, so a sift step
    is one float comparison (two on a rank tie), with no closure call, no
    boxing and no [O(n log n)] sort to turn ranks into keys first.  ±0.
    tie, infinities order as usual and NaN ranks last, exactly as
    [compare] on floats orders them — the order of the ready set in HEFT,
    ILHA, the repair re-mapper and unrelated-machine HEFT. *)
module Int_heap : sig
  type t

  (** [create ?rank ()] — elements [v] are served by decreasing
      [rank.(v)], ties on the smaller [v]; without [rank], in increasing
      [v].  The rank array is read on every heap operation and must not
      be mutated while the heap is non-empty. *)
  val create : ?rank:float array -> unit -> t

  val length : t -> int
  val is_empty : t -> bool
  val add : t -> int -> unit
  val peek : t -> int option
  val pop : t -> int option

  (** @raise Invalid_argument on an empty heap. *)
  val pop_exn : t -> int
end
