(** Growable arrays.

    A thin, predictable dynamic-array built on [Array], used throughout the
    scheduler for event lists and adjacency construction.  Amortised O(1)
    [push]; O(n) [insert]/[remove] preserving order. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t

(** [make n x] is a vector of length [n] filled with [x]. *)
val make : int -> 'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [get v i] and [set v i x] check bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)
val pop : 'a t -> 'a

(** [last v] returns the last element without removing it. *)
val last : 'a t -> 'a

(** [insert v i x] shifts elements [i..] right by one and writes [x] at [i].
    [i] may equal [length v] (equivalent to [push]). *)
val insert : 'a t -> int -> 'a -> unit

(** [remove v i] removes the element at [i], shifting the tail left. *)
val remove : 'a t -> int -> unit

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t

(** [sort cmp v] sorts in place. *)
val sort : ('a -> 'a -> int) -> 'a t -> unit

(** [copy v] is an independent copy sharing no mutable state. *)
val copy : 'a t -> 'a t

(** [binary_search v ~compare x] returns the smallest index [i] such that
    [compare (get v i) x >= 0], i.e. the insertion point keeping [v] sorted;
    returns [length v] when every element is smaller. *)
val lower_bound : 'a t -> compare:('a -> 'a -> int) -> 'a -> int
