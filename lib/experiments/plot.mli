(** ASCII line charts — the textual equivalent of the paper's Figures 7-12
    (speedup vs. problem size, one marker per heuristic), so
    [schedcli figures] shows the curve shapes directly in the terminal. *)

(** [render ?width ?height ~x_label ~y_label series] — each series is a
    name (its first character becomes the plot marker) and its [(x, y)]
    points.  Axes are scaled to the data (y from 0 unless [y_from_zero]
    is [false]); colliding markers print ['*'].
    @raise Invalid_argument when no series has points. *)
val render :
  ?width:int ->
  ?height:int ->
  ?y_from_zero:bool ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
