(** The shed-victim rule shared by the online driver's graceful
    degradation and the scheduling daemon's full-backlog admission.

    Both callers decide {e when} to shed and {e which} jobs may go
    (the driver: active jobs with no started task; the daemon: queued
    jobs); this module decides which of those goes first. *)

(** [shed_victim ~priority ~id ~below candidates] is the candidate to
    drop so that a job of priority [below] keeps its place: the lowest
    priority strictly below [below], and among equals the newest (the
    largest [id]).  [None] when no candidate ranks below [below]. *)
val shed_victim :
  priority:('a -> int) -> id:('a -> int) -> below:int -> 'a Seq.t -> 'a option
