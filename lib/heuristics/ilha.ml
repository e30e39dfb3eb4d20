module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

let default_b plat =
  match Load_balance.perfect_chunk plat with
  | b -> b
  | exception Invalid_argument _ -> Platform.p plat

let quota_eps = 1e-9

(* The processor of the source of predecessor edge [i] (a CSR index). *)
let parent_proc sched g i =
  Schedule.proc_of_exn sched (Graph.edge_src g (Graph.pred_edge g i))

(* The processor hosting every parent of [task], when unique; -1 for
   entry tasks or scattered parents.  Walks the predecessor CSR range:
   no list, no closure. *)
let common_parent_proc sched g task =
  let first = Graph.pred_first g task and stop = Graph.pred_first g (task + 1) in
  if first = stop then -1
  else begin
    let q = parent_proc sched g first and common = ref true in
    for i = first + 1 to stop - 1 do
      if parent_proc sched g i <> q then common := false
    done;
    if !common then q else -1
  end

(* Processors [q] reachable at the price of exactly one communication:
   parents span several processors but only one parent edge crosses when
   the task runs on [q]. *)
let one_comm_procs sched g task =
  match Graph.preds g task with
  | [] | [ _ ] -> []
  | parents ->
      let procs = List.sort_uniq compare (List.map (Schedule.proc_of_exn sched) parents) in
      List.filter
        (fun q ->
          let crossing =
            Graph.fold_pred_edges g task ~init:0 ~f:(fun acc e ->
                if Schedule.proc_of_exn sched (Graph.edge_src g e) <> q then acc + 1
                else acc)
          in
          crossing = 1)
        procs

(* Map one chunk of independent ready tasks (already in priority order)
   onto [engine], honouring per-processor weight quotas in the scans. *)
let map_chunk ~scan engine g plat chunk =
  let sched = Engine.schedule engine in
  let p = Platform.p plat in
  let total = List.fold_left (fun acc v -> acc +. Graph.weight g v) 0. chunk in
  let quota = Array.init p (fun i -> Platform.balanced_fraction plat i *. total) in
  let load = Array.make p 0. in
  let fits q w = load.(q) +. w <= quota.(q) +. quota_eps in
  let place v q =
    Engine.schedule_on engine ~task:v ~proc:q;
    load.(q) <- load.(q) +. Graph.weight g v
  in
  (* [sieve f l] keeps the elements [f] declines, applying [f] strictly
     left to right (placements mutate state, so order matters). *)
  let sieve f l =
    List.rev (List.fold_left (fun acc v -> if f v then acc else v :: acc) [] l)
  in
  (* Step 1: zero-communication placements under quota. *)
  let rest =
    let placeable v =
      let q = common_parent_proc sched g v in
      if q >= 0 && fits q (Graph.weight g v) then begin
        place v q;
        true
      end
      else false
    in
    sieve placeable chunk
  in
  (* Optional scan: single-communication placements under quota. *)
  let rest =
    match scan with
    | Params.Scan_zero_comm -> rest
    | Params.Scan_one_comm ->
        let placeable v =
          let candidates =
            List.filter (fun q -> fits q (Graph.weight g v)) (one_comm_procs sched g v)
          in
          match candidates with
          | [] -> false
          | cs ->
              let q = Engine.schedule_best_among engine ~task:v cs in
              load.(q) <- load.(q) +. Graph.weight g v;
              true
        in
        sieve placeable rest
  in
  (* Step 2: HEFT rule for whatever remains. *)
  List.iter
    (fun v ->
      let (_ : int) = Engine.schedule_best engine ~task:v in
      ())
    rest

(* Reschedule variant: run the two scans on a scratch copy to learn the
   allocation, then commit chunk tasks for real in order of globally
   smallest finish time on their allocated processor.  The pending set is
   a flat (task, proc) table with alive flags — [Engine.schedule_pending]
   scans it in chunk order, which keeps the earliest-row tie-break of
   the original list walk. *)
let map_chunk_reschedule ~scan ~policy engine g plat chunk =
  let scratch_sched = Schedule.copy (Engine.schedule engine) in
  let scratch = Engine.create ~policy scratch_sched in
  map_chunk ~scan scratch g plat chunk;
  let tasks = Array.of_list chunk in
  let n = Array.length tasks in
  let procs = Array.map (Schedule.proc_of_exn scratch_sched) tasks in
  let alive = Array.make n true in
  for _ = 1 to n do
    let i = Engine.schedule_pending engine ~tasks ~procs ~alive in
    if i >= 0 then alive.(i) <- false
  done

let schedule ?(params = Params.default) plat g =
  let { Params.model; policy; scan; reschedule; _ } = params in
  let b = match params.Params.b with Some b -> b | None -> default_b plat in
  if b < 1 then invalid_arg "Ilha.schedule: b < 1";
  Obs.Span.with_ "ilha" (fun () ->
      let sched = Schedule.create ~graph:g ~platform:plat ~model () in
      let engine = Engine.create ~policy sched in
      let rank = Obs.Span.with_ "rank" (fun () -> Ranking.upward g plat) in
      let ready = Prelude.Pqueue.Int_heap.create ~rank () in
      let remaining = Array.init (Graph.n_tasks g) (Graph.in_degree g) in
      for v = 0 to Graph.n_tasks g - 1 do
        if remaining.(v) = 0 then Prelude.Pqueue.Int_heap.add ready v
      done;
      while not (Prelude.Pqueue.Int_heap.is_empty ready) do
        let chunk = ref [] in
        let len = ref 0 in
        while !len < b && not (Prelude.Pqueue.Int_heap.is_empty ready) do
          chunk := Prelude.Pqueue.Int_heap.pop_exn ready :: !chunk;
          incr len
        done;
        let chunk = List.rev !chunk in
        Obs.Span.with_ "chunk" (fun () ->
            if reschedule then map_chunk_reschedule ~scan ~policy engine g plat chunk
            else map_chunk ~scan engine g plat chunk);
        (* Newly ready tasks join the pool for the next chunk. *)
        List.iter
          (fun v ->
            Graph.iter_succ_edges g v ~f:(fun e ->
                let u = Graph.edge_dst g e in
                remaining.(u) <- remaining.(u) - 1;
                if remaining.(u) = 0 then Prelude.Pqueue.Int_heap.add ready u))
          chunk
      done;
      sched)
