(* The from-scratch annealer: one full [Refine.rebuild] per proposal.
   The executable specification of [Anneal.improve]: same RNG
   consumption, same acceptance rule, same epsilon, so the move traces
   are bit-identical. *)

module O = Onesched
module Anneal = O.Anneal
module Refine = O.Refine
module Params = O.Params
module Graph = O.Graph
module Schedule = O.Schedule
module Platform = O.Platform
module Rng = O.Rng

let improve ?policy ?(params = Anneal.default_params) sched0 =
  if params.steps < 0 then invalid_arg "Anneal.improve: negative steps";
  let g = Schedule.graph sched0 in
  let plat = Schedule.platform sched0 in
  let model = Schedule.model sched0 in
  let n = Graph.n_tasks g in
  let p = Platform.p plat in
  let rng = Rng.create ~seed:params.Anneal.seed in
  let alloc = Array.init n (fun v -> Schedule.proc_of_exn sched0 v) in
  let rebuild () =
    Refine.rebuild
      ~params:(Params.make ?policy ~model ())
      ~alloc:(fun v -> alloc.(v))
      plat g
  in
  let initial_makespan = Schedule.makespan sched0 in
  let current_sched = ref (rebuild ()) in
  let current = ref (Schedule.makespan !current_sched) in
  let best_sched = ref !current_sched in
  let best = ref !current in
  if initial_makespan < !best then begin
    best_sched := sched0;
    best := initial_makespan
  end;
  let temperature = ref (params.initial_temperature *. initial_makespan) in
  let accepted = ref 0 and improved = ref 0 in
  let moves = ref [] in
  if n > 0 && p > 1 then
    for _ = 1 to params.steps do
      let v = Rng.int rng n in
      let old_proc = alloc.(v) in
      let new_proc = (old_proc + 1 + Rng.int rng (p - 1)) mod p in
      alloc.(v) <- new_proc;
      let sched = rebuild () in
      let m = Schedule.makespan sched in
      let delta = m -. !current in
      let accept =
        delta <= 0.
        || (!temperature > 0. && Rng.float rng 1. < exp (-.delta /. !temperature))
      in
      if accept then begin
        incr accepted;
        current := m;
        current_sched := sched;
        moves := (v, new_proc, m) :: !moves;
        if m < !best -. 1e-9 then begin
          best := m;
          best_sched := sched;
          incr improved
        end
      end
      else alloc.(v) <- old_proc;
      temperature := !temperature *. params.cooling
    done;
  {
    Anneal.schedule = !best_sched;
    initial_makespan;
    final_makespan = !best;
    accepted = !accepted;
    improved = !improved;
    moves = List.rev !moves;
  }
