(** Aggregated observability payload for one scheduler run: the counter
    deltas plus wall-time totals per span name.  This is what
    [Experiments.Runner] attaches to its rows and what the CLI prints
    under [--stats]. *)

type t = {
  counters : Counters.snapshot;
  phases : (string * float) list;
      (** total seconds per span name, first-seen order; nested spans
          are counted inside their parents *)
}

val empty : t

(** [capture f] — run [f] with counters and spans scoped: remembers the
    counter snapshot and span cursor, runs [f], and returns the report
    covering exactly that window.  Does {e not} toggle the global
    enabled flags; with observability disabled the report is
    {!empty}. *)
val capture : (unit -> 'a) -> 'a * t

val pp : Format.formatter -> t -> unit
