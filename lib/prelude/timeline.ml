(* Flat growable float arrays keep intervals unboxed; [starts] and
   [finishes] are parallel and sorted (disjointness makes both sorted). *)
type t = {
  mutable starts : float array;
  mutable finishes : float array;
  mutable len : int;
}

let create () = { starts = [||]; finishes = [||]; len = 0 }

let n_intervals t = t.len

let intervals t =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) ((t.starts.(i), t.finishes.(i)) :: acc)
  in
  loop (t.len - 1) []

(* Inlined so that callers comparing it against a float do not box it. *)
let[@inline] last_finish t = if t.len = 0 then 0. else t.finishes.(t.len - 1)

let total_busy t =
  let acc = ref 0. in
  for i = 0 to t.len - 1 do
    acc := !acc +. (t.finishes.(i) -. t.starts.(i))
  done;
  !acc

let grow t =
  let cap = Array.length t.starts in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let starts = Array.make cap' 0. and finishes = Array.make cap' 0. in
  Array.blit t.starts 0 starts 0 t.len;
  Array.blit t.finishes 0 finishes 0 t.len;
  t.starts <- starts;
  t.finishes <- finishes

(* Smallest index whose finish is strictly greater than [x]: the first
   interval that can constrain a gap starting at [x].  Callers ask near
   the tail (a list scheduler's slots land a few intervals back from the
   end), so the search gallops back from the last interval, doubling its
   step, and bisects only the bracket it lands in: O(log d) for an
   answer [d] intervals from the tail.  Finishes are sorted, so the
   answer is the same index a bisection of the whole timeline finds.
   Inlined, so that [x] is not boxed to cross a call. *)
let[@inline] first_relevant t x =
  let fin = t.finishes in
  let hi = ref (t.len - 1) in
  if !hi < 0 || fin.(!hi) <= x then t.len
  else begin
    (* invariant: fin.(!hi) > x, and every index below !lo has finish
       <= x *)
    let lo = ref 0 and step = ref 1 and galloping = ref true in
    while !galloping do
      let j = !hi - !step in
      if j < 0 then galloping := false
      else if fin.(j) <= x then begin
        lo := j + 1;
        galloping := false
      end
      else begin
        hi := j;
        step := 2 * !step
      end
    done;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fin.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let add t ~start ~finish =
  if finish < start then invalid_arg "Timeline.add: finish < start";
  if finish > start then begin
    if t.len = Array.length t.starts then grow t;
    let i = first_relevant t start in
    if i < t.len && t.starts.(i) < finish then
      invalid_arg "Timeline.add: overlapping busy interval";
    (* Adds land a few intervals from the tail: shift them in place
       rather than through a C blit. *)
    let ss = t.starts and fs = t.finishes in
    for j = t.len downto i + 1 do
      ss.(j) <- ss.(j - 1);
      fs.(j) <- fs.(j - 1)
    done;
    t.starts.(i) <- start;
    t.finishes.(i) <- finish;
    t.len <- t.len + 1
  end

(* Intervals are disjoint half-open and sorted, so [first_relevant t
   start] lands exactly on the interval starting at [start] when there
   is one. *)
let remove t ~start ~finish =
  if finish > start then begin
    let i = first_relevant t start in
    if i >= t.len || t.starts.(i) <> start then
      invalid_arg "Timeline.remove: no busy interval with that start";
    if t.finishes.(i) <> finish then
      invalid_arg "Timeline.remove: finish does not match the busy interval";
    Array.blit t.starts (i + 1) t.starts i (t.len - i - 1);
    Array.blit t.finishes (i + 1) t.finishes i (t.len - i - 1);
    t.len <- t.len - 1
  end

(* The earliest slot of [duration] at or after [after] on [t] alone,
   the probe the bound and most compute slots make: one cursor, no
   extras, no pass structure.  [first_relevant] lands on the first
   interval finishing after [after]; each blocker pushes the candidate
   to its finish, and the next interval (sorted, disjoint, non-empty)
   finishes later still, so no skip loop is needed. *)
let earliest_gap t ~q =
  Obs.Counters.(bump joint_gap_probes);
  let after = q.(0) and duration = q.(1) in
  if duration > 0. then begin
    let ss = t.starts and fs = t.finishes in
    let i = ref (first_relevant t after) in
    let candidate = ref after in
    while !i < t.len && ss.(!i) < !candidate +. duration do
      candidate := fs.(!i);
      incr i
    done;
    q.(0) <- !candidate
  end

(* The non-allocating core of the joint search: timelines come as a
   caller-owned array prefix [ts.(0 .. k-1)], tentative blockers as flat
   parallel arrays [extra_s]/[extra_f] (prefix [extra_len], sorted by
   start, no zero-length intervals), and [idx] is caller-provided cursor
   scratch of length >= k.  The query travels in [q] ([after] and
   [duration] in, the answer out), so the engine's arena calls this once
   per probe without allocating anything.

   Push until it fits: each source in turn — every timeline, then the
   extras — pushes the candidate past {e all} of its intervals that
   overlap it before the walk moves on, and the passes repeat until one
   full pass moves nothing.  The candidate only ever takes the value
   [after] or the finish of an interval overlapping it, and every start
   it skips is infeasible, so the fixpoint is the earliest feasible
   start: the same float however the pushes are ordered. *)
let earliest_gap_joint_arr ts ~k ~extra_s ~extra_f ~extra_len ~idx ~q =
  Obs.Counters.(bump joint_gap_probes);
  let after = q.(0) and duration = q.(1) in
  if duration > 0. then begin
    for j = 0 to k - 1 do
      idx.(j) <- first_relevant ts.(j) after
    done;
    let ex = ref 0 in
    let candidate = ref after in
    let progress = ref true in
    while !progress do
      progress := false;
      for j = 0 to k - 1 do
        let t = ts.(j) in
        let ss = t.starts and fs = t.finishes and len = t.len in
        let i = ref idx.(j) in
        (* Skip intervals that end at or before the candidate. *)
        while !i < len && fs.(!i) <= !candidate do
          incr i
        done;
        (* Push past every blocker; each one's successor finishes later,
           so it cannot end at or before the new candidate. *)
        while !i < len && ss.(!i) < !candidate +. duration do
          candidate := fs.(!i);
          incr i;
          progress := true
        done;
        idx.(j) <- !i
      done;
      (* Tentative blockers, in start order.  A plain loop rather than
         a local recursive function: a closure capturing [candidate]
         would box every write to it and be allocated on every pass. *)
      let eating = ref true in
      while !eating && !ex < extra_len do
        if extra_f.(!ex) <= !candidate then incr ex
        else if extra_s.(!ex) < !candidate +. duration then begin
          candidate := extra_f.(!ex);
          incr ex;
          progress := true
        end
        else eating := false
      done
    done;
    q.(0) <- !candidate
  end

let free_at t ~start ~finish =
  if finish <= start then true
  else begin
    let i = first_relevant t start in
    i >= t.len || t.starts.(i) >= finish
  end

let copy t =
  {
    starts = Array.copy t.starts;
    finishes = Array.copy t.finishes;
    len = t.len;
  }
