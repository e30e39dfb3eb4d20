(** Sorting int tags by flat float keys, bucket by bucket.

    The validator's sweeps and the exporters order events held as three
    parallel arrays: a start ([key]), a finish ([fin]) and an [int] tag.
    Rather than a heap sort ([Array.sort]) of an index permutation that
    calls a closure comparator per comparison, this is one monomorphic,
    closure-free merge sort over the arrays themselves: insertion-sorted
    runs of {!run} slots, then bottom-up merges through scratch arrays,
    and a single pass when a bucket is already in order.

    The order is complete: [key] ascending, then [fin] {e descending}
    (longest first among equal starts), then [tag] ascending, so the
    result does not depend on the input order of equal elements. *)

(** Length of the insertion-sorted runs: a bucket of at most [run] slots
    is sorted by insertion alone, longer ones are then merged. *)
val run : int

(** [sort_buckets ~off ~key ~fin ~tag] sorts, independently inside each
    bucket [[off.(b), off.(b + 1))], the slots of the three parallel
    arrays.  [off] must be non-decreasing, and its last entry at most the
    length of the arrays.  Slots outside every bucket are left alone. *)
val sort_buckets :
  off:int array -> key:float array -> fin:float array -> tag:int array -> unit

(** [sort ~key ~fin ~tag] sorts the whole arrays as one bucket. *)
val sort : key:float array -> fin:float array -> tag:int array -> unit
