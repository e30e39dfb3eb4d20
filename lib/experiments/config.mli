(** Experiment configuration.

    [paper ()] is §5.2's setting: the 10-processor platform (5×t=6, 3×t=10,
    2×t=15, unit links), communication-to-computation ratio [c = 10], and
    problem sizes 100–500, with {!Heuristics.Params.default} scheduler
    parameters (bi-directional one-port, insertion-based slot search).
    [scale] shrinks the sizes proportionally for quick runs (e.g.
    [~scale:0.2] turns 100–500 into 20–100). *)

type t = {
  platform : Platform.t;
  params : Heuristics.Params.t;
      (** scheduler parameters every run uses unless overridden per call *)
  ccr : float;
  sizes : int list;
  seed : int;  (** randomised experiments derive their RNG from this *)
}

val paper : ?scale:float -> unit -> t

(** The configuration's communication model ([t.params.model]). *)
val model : t -> Commmodel.Comm_model.t

(** Field updates; [with_model] rewrites [params.model]. *)
val with_model : t -> Commmodel.Comm_model.t -> t
val with_sizes : t -> int list -> t
