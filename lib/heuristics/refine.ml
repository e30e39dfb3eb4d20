module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

type result = {
  schedule : Sched.Schedule.t;
  initial_makespan : float;
  final_makespan : float;
  accepted_moves : int;
  evaluations : int;
  moves : (int * int * float) list;
}

let rebuild ?(params = Params.default) ~alloc plat g =
  let handle engine v = Engine.schedule_on engine ~task:v ~proc:(alloc v) in
  List_loop.run ~params ~priority:(Ranking.upward g plat) ~handle plat g

(* The tasks defining the makespan: those finishing within epsilon of the
   last finish time (usually one exit task, possibly several). *)
let bottleneck_tasks sched =
  let g = Schedule.graph sched in
  let makespan = Schedule.makespan sched in
  List.filter
    (fun v ->
      Prelude.Stats.fequal (Schedule.finish_of_exn sched v) makespan)
    (List.init (Graph.n_tasks g) Fun.id)

(* Moving only the final task rarely helps (its predecessors are the real
   constraint), so the candidate set is the bottleneck tasks plus
   everything on a backward critical chain from them: repeatedly step to
   the predecessor (or same-processor forerunner) whose finish equals the
   task's start. *)
let candidate_tasks sched =
  let g = Schedule.graph sched in
  let seen = Hashtbl.create 32 in
  let rec chase v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      let start = (Schedule.placement_exn sched v).Schedule.start in
      Graph.iter_pred_edges g v ~f:(fun e ->
          let u = Graph.edge_src g e in
          (* a predecessor is binding if the task starts right after the
             edge's data becomes available *)
          if Prelude.Stats.fequal (Schedule.edge_available_at sched ~edge:e) start
          then chase u)
    end
  in
  List.iter chase (bottleneck_tasks sched);
  Hashtbl.fold (fun v () acc -> v :: acc) seen [] |> List.sort compare

(* The incremental climber: same control flow as the from-scratch
   climber the test oracle keeps ([Refine_ref.improve], one full rebuild
   per priced move), but candidate moves are priced by a {!Prefix_replay}
   driver — rewind to the moved task's decision position, replay the
   suffix.  Every comparison (and its epsilon) matches the oracle line
   for line, which is what makes the two bit-identical. *)
let improve ?policy ?(max_rounds = 3) ?(max_moves = 25) sched0 =
  let g = Schedule.graph sched0 in
  let plat = Schedule.platform sched0 in
  let model = Schedule.model sched0 in
  let p = Platform.p plat in
  let alloc0 =
    Array.init (Graph.n_tasks g) (fun v -> Schedule.proc_of_exn sched0 v)
  in
  let evaluations = ref 1 (* the initial build *) in
  let d = Prefix_replay.create ?policy ~model ~alloc:alloc0 plat g in
  let initial_makespan = Schedule.makespan sched0 in
  let best = ref (Prefix_replay.makespan d) in
  (* When the input schedule beats its own rebuild, the input is the
     incumbent (and, if no move ever improves on it, the result). *)
  let use_input = ref false in
  if initial_makespan < !best then begin
    use_input := true;
    best := initial_makespan
  end;
  let accepted = ref 0 in
  let moves = ref [] in
  let rounds_left = ref max_rounds in
  while !rounds_left > 0 && !accepted < max_moves do
    let improved_this_round = ref false in
    let candidates =
      if !use_input then candidate_tasks sched0
      else candidate_tasks (Prefix_replay.schedule d)
    in
    List.iter
      (fun v ->
        if !accepted < max_moves then begin
          let home = Prefix_replay.alloc d v in
          let best_move = ref None in
          for q = 0 to p - 1 do
            if q <> home then begin
              Prefix_replay.set_alloc d v q;
              incr evaluations;
              let m = Prefix_replay.makespan d in
              let better =
                match !best_move with
                | None -> m < !best -. 1e-9
                | Some (m', _) -> m < m' -. 1e-9
              in
              if better then best_move := Some (m, q)
            end
          done;
          match !best_move with
          | Some (m, q) ->
              Prefix_replay.set_alloc d v q;
              best := m;
              use_input := false;
              incr accepted;
              moves := (v, q, m) :: !moves;
              improved_this_round := true
          | None -> Prefix_replay.set_alloc d v home
        end)
      candidates;
    if not !improved_this_round then decr rounds_left
  done;
  let schedule = if !use_input then sched0 else Prefix_replay.schedule d in
  {
    schedule;
    initial_makespan;
    final_makespan = !best;
    accepted_moves = !accepted;
    evaluations = !evaluations;
    moves = List.rev !moves;
  }
