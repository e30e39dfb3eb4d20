(* The from-scratch hill climber: every candidate move pays one full
   [Refine.rebuild].  The executable specification of [Refine.improve]:
   the test suite proves the incremental climber replays its way to
   bit-identical results (same move trace, same counts, same final
   schedule). *)

module O = Onesched
module Refine = O.Refine
module Params = O.Params
module Graph = O.Graph
module Schedule = O.Schedule
module Platform = O.Platform

let improve ?policy ?(max_rounds = 3) ?(max_moves = 25) sched0 =
  let g = Schedule.graph sched0 in
  let plat = Schedule.platform sched0 in
  let model = Schedule.model sched0 in
  let p = Platform.p plat in
  let alloc = Array.init (Graph.n_tasks g) (fun v -> Schedule.proc_of_exn sched0 v) in
  let evaluations = ref 0 in
  let run () =
    incr evaluations;
    Refine.rebuild ~params:(Params.make ?policy ~model ()) ~alloc:(fun v -> alloc.(v)) plat g
  in
  let initial_makespan = Schedule.makespan sched0 in
  let best_sched = ref (run ()) in
  let best = ref (Schedule.makespan !best_sched) in
  if initial_makespan < !best then begin
    best_sched := sched0;
    best := initial_makespan
  end;
  let accepted = ref 0 in
  let moves = ref [] in
  let rounds_left = ref max_rounds in
  while !rounds_left > 0 && !accepted < max_moves do
    let improved_this_round = ref false in
    let candidates = Refine.candidate_tasks !best_sched in
    List.iter
      (fun v ->
        if !accepted < max_moves then begin
          let home = alloc.(v) in
          let best_move = ref None in
          for q = 0 to p - 1 do
            if q <> home then begin
              alloc.(v) <- q;
              let sched = run () in
              let m = Schedule.makespan sched in
              let better =
                match !best_move with
                | None -> m < !best -. 1e-9
                | Some (m', _, _) -> m < m' -. 1e-9
              in
              if better then best_move := Some (m, q, sched)
            end
          done;
          match !best_move with
          | Some (m, q, sched) ->
              alloc.(v) <- q;
              best := m;
              best_sched := sched;
              incr accepted;
              moves := (v, q, m) :: !moves;
              improved_this_round := true
          | None -> alloc.(v) <- home
        end)
      candidates;
    if not !improved_this_round then decr rounds_left
  done;
  {
    Refine.schedule = !best_sched;
    initial_makespan;
    final_makespan = !best;
    accepted_moves = !accepted;
    evaluations = !evaluations;
    moves = List.rev !moves;
  }
