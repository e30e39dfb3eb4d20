open Prelude
module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

type params = {
  steps : int;
  initial_temperature : float;
  cooling : float;
  seed : int;
}

let default_params =
  { steps = 400; initial_temperature = 0.05; cooling = 0.99; seed = 2002 }

type result = {
  schedule : Sched.Schedule.t;
  initial_makespan : float;
  final_makespan : float;
  accepted : int;
  improved : int;
  moves : (int * int * float) list;
}

(* The incremental annealer: proposals are priced on a {!Prefix_replay}
   driver — rewind to the moved task's decision position, replay the
   suffix.  The best-ever allocation is remembered as an array (the
   driver's working schedule keeps moving), and the result schedule is
   rebuilt from it at the end.  Same RNG consumption, acceptance
   rule and epsilon as the from-scratch annealer the test oracle keeps
   ([Anneal_ref.improve]), so the move traces are bit-identical. *)
let improve ?policy ?(params = default_params) sched0 =
  if params.steps < 0 then invalid_arg "Anneal.improve: negative steps";
  let g = Schedule.graph sched0 in
  let plat = Schedule.platform sched0 in
  let model = Schedule.model sched0 in
  let n = Graph.n_tasks g in
  let p = Platform.p plat in
  let rng = Rng.create ~seed:params.seed in
  let alloc0 = Array.init n (fun v -> Schedule.proc_of_exn sched0 v) in
  let d = Prefix_replay.create ?policy ~model ~alloc:alloc0 plat g in
  let initial_makespan = Schedule.makespan sched0 in
  let current = ref (Prefix_replay.makespan d) in
  let best = ref !current in
  let best_alloc = ref alloc0 in
  let use_input = ref false in
  if initial_makespan < !best then begin
    use_input := true;
    best := initial_makespan
  end;
  let temperature = ref (params.initial_temperature *. initial_makespan) in
  let accepted = ref 0 and improved = ref 0 in
  let moves = ref [] in
  if n > 0 && p > 1 then
    for _ = 1 to params.steps do
      let v = Rng.int rng n in
      let old_proc = Prefix_replay.alloc d v in
      let new_proc = (old_proc + 1 + Rng.int rng (p - 1)) mod p in
      Prefix_replay.set_alloc d v new_proc;
      let m = Prefix_replay.makespan d in
      let delta = m -. !current in
      let accept =
        delta <= 0.
        || (!temperature > 0. && Rng.float rng 1. < exp (-.delta /. !temperature))
      in
      if accept then begin
        incr accepted;
        current := m;
        moves := (v, new_proc, m) :: !moves;
        if m < !best -. 1e-9 then begin
          best := m;
          best_alloc := Prefix_replay.alloc_array d;
          use_input := false;
          incr improved
        end
      end
      else Prefix_replay.set_alloc d v old_proc;
      temperature := !temperature *. params.cooling
    done;
  let schedule =
    if !use_input then sched0
    else begin
      Array.iteri (fun v q -> Prefix_replay.set_alloc d v q) !best_alloc;
      Prefix_replay.schedule d
    end
  in
  {
    schedule;
    initial_makespan;
    final_makespan = !best;
    accepted = !accepted;
    improved = !improved;
    moves = List.rev !moves;
  }
