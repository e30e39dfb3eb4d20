module Graph = Taskgraph.Graph


type t = {
  makespan : float;
  sequential_time : float;
  speedup : float;
  speedup_bound : float;
  efficiency : float;
  n_comm_events : int;
  total_comm_time : float;
  n_phases : int;
  total_phase_time : float;
  n_duplicates : int;
  total_dup_time : float;
  total_busy_time : float;
  mean_utilization : float;
  proc_loads : float array;
  max_load_imbalance : float;
}

let compute s =
  let g = Schedule.graph s in
  let plat = Schedule.platform s in
  let p = Platform.p plat in
  let makespan = Schedule.makespan s in
  let sequential_time = Graph.total_weight g *. Platform.min_cycle_time plat in
  let proc_loads = Array.make p 0. in
  let n_duplicates = ref 0 in
  let total_dup_time = ref 0. in
  for v = 0 to Graph.n_tasks g - 1 do
    let pl = Schedule.placement_exn s v in
    proc_loads.(pl.proc) <- proc_loads.(pl.proc) +. (pl.finish -. pl.start);
    (* duplicate copies burn real processor time too *)
    List.iter
      (fun (c : Schedule.placement) ->
        incr n_duplicates;
        total_dup_time := !total_dup_time +. (c.finish -. c.start);
        proc_loads.(c.proc) <- proc_loads.(c.proc) +. (c.finish -. c.start))
      (Schedule.dup_copies s v)
  done;
  let total_busy_time = Array.fold_left ( +. ) 0. proc_loads in
  let speedup = if makespan > 0. then sequential_time /. makespan else 0. in
  let speedup_bound = Platform.speedup_bound plat in
  let max_load_imbalance =
    if makespan <= 0. then 0.
    else begin
      let worst = ref 0. in
      for q = 0 to p - 1 do
        (* Balanced share of the actually-executed time, weighted by speed. *)
        let share = Platform.balanced_fraction plat q *. total_busy_time in
        worst := max !worst (abs_float (proc_loads.(q) -. share) /. makespan)
      done;
      !worst
    end
  in
  {
    makespan;
    sequential_time;
    speedup;
    speedup_bound;
    efficiency = (if speedup_bound > 0. then speedup /. speedup_bound else 0.);
    n_comm_events = Schedule.n_comm_events s;
    total_comm_time = Schedule.total_comm_time s;
    n_phases = Schedule.n_phases s;
    total_phase_time = Schedule.total_phase_time s;
    n_duplicates = !n_duplicates;
    total_dup_time = !total_dup_time;
    total_busy_time;
    mean_utilization =
      (if makespan > 0. then total_busy_time /. (float_of_int p *. makespan)
       else 0.);
    proc_loads;
    max_load_imbalance;
  }

(* The phases line only appears when phases exist, so output under the
   seven port-regime models is byte-identical to before the BSP rung. *)
let pp fmt m =
  Format.fprintf fmt
    "@[<v>makespan: %g@ sequential: %g@ speedup: %.3f (bound %.2f, efficiency \
     %.1f%%)@ comm events: %d (total time %g)"
    m.makespan m.sequential_time m.speedup m.speedup_bound
    (100. *. m.efficiency) m.n_comm_events m.total_comm_time;
  if m.n_phases > 0 then
    Format.fprintf fmt "@ comm phases: %d (total time %g)" m.n_phases
      m.total_phase_time;
  (* like the phases line, only duplicated schedules show it *)
  if m.n_duplicates > 0 then
    Format.fprintf fmt "@ duplicates: %d (total time %g)" m.n_duplicates
      m.total_dup_time;
  Format.fprintf fmt "@ mean utilization: %.1f%%@]"
    (100. *. m.mean_utilization)
