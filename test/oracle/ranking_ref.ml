(* The list schedulers' priority order as a comparator: decreasing rank
   under [compare] on floats, ties on increasing task id.  The library's
   ready set ([Prelude.Pqueue.Int_heap] keyed by the rank array) must
   drain in exactly this order. *)

let compare_priority ranks a b =
  match compare ranks.(b) ranks.(a) with 0 -> compare a b | c -> c
