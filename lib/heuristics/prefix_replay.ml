module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

(* The decision order of a forced-allocation rebuild (Refine.rebuild) is
   the Kahn drain by static upward rank — it depends only on the graph
   and platform, never on the allocation.  So a rebuild after changing
   task [v]'s processor agrees with the previous build on every decision
   before [v]'s position: rewind there and replay only the suffix. *)
type t = {
  engine : Engine.t;
  order : int array; (* decision index -> task *)
  pos : int array; (* task -> decision index *)
  alloc : int array;
  n : int;
  mutable dirty : int; (* first decision index to rebuild; [n] = clean *)
}

let commit_suffix t ~from ~count_replays =
  for i = from to t.n - 1 do
    let v = t.order.(i) in
    if count_replays then Obs.Counters.(bump replayed_tasks);
    Engine.schedule_on t.engine ~task:v ~proc:t.alloc.(v)
  done;
  t.dirty <- t.n

let create ?policy ~model ~alloc plat g =
  let sched = Schedule.create ~graph:g ~platform:plat ~model () in
  let engine = Engine.create ?policy sched in
  let order = List_loop.decision_order ~priority:(Ranking.upward g plat) g in
  let n = Graph.n_tasks g in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let t =
    { engine; order; pos; alloc = Array.copy alloc; n; dirty = 0 }
  in
  commit_suffix t ~from:0 ~count_replays:false;
  t

let alloc t v = t.alloc.(v)
let alloc_array t = Array.copy t.alloc

let set_alloc t v q =
  if q <> t.alloc.(v) then begin
    t.alloc.(v) <- q;
    if t.pos.(v) < t.dirty then t.dirty <- t.pos.(v)
  end

let replay t =
  if t.dirty < t.n then begin
    Engine.rewind t.engine ~to_:t.dirty;
    commit_suffix t ~from:t.dirty ~count_replays:true
  end

let schedule t =
  replay t;
  Engine.schedule t.engine

let makespan t = Schedule.makespan (schedule t)
