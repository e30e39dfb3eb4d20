(** One runnable experiment per figure/table of the paper, plus the
    ablations DESIGN.md commits to.  Each experiment renders a
    self-describing text report (tables built with {!Prelude.Table});
    [schedcli figures] just picks and prints.

    Identifiers: [e1] (§2.3 serialization example), [e2] (§4.4 toy,
    Figure 4), [e3] (§5.2 speedup bound), [fig7]–[fig12] (the six testbed
    comparisons), [sweep-b], [models], [insertion], [tournament],
    [robustness], [reductions] (Theorems 1 and 2 checks). *)

type t = {
  id : string;
  title : string;
  paper_claim : string;  (** what the paper reports, for side-by-side *)
  render : Config.t -> string;
}

val all : t list
val ids : string list

(** @raise Invalid_argument on an unknown id. *)
val find : string -> t
