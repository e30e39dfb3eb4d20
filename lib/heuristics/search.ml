module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

let best_schedule ?(params = Params.default) plat g =
  let { Params.model; policy; _ } = params in
  let n = Graph.n_tasks g in
  if n > 10 then invalid_arg "Search.best_schedule: more than 10 tasks";
  let p = Platform.p plat in
  (* Start from HEFT so pruning has a good incumbent. *)
  let incumbent = ref (Heft.schedule ~params plat g) in
  let incumbent_makespan = ref (Schedule.makespan !incumbent) in
  (* One schedule and one engine for the whole search: descending an edge
     of the DFS tree commits a decision, returning retracts it through
     the engine's commit log — no per-node schedule copy. *)
  let sched = Schedule.create ~graph:g ~platform:plat ~model () in
  let engine = Engine.create ~policy sched in
  let rec explore remaining ready current_max =
    if ready = [] then begin
      if remaining = 0 && current_max < !incumbent_makespan then begin
        incumbent := Schedule.copy sched;
        incumbent_makespan := current_max
      end
    end
    else
      List.iter
        (fun v ->
          for q = 0 to p - 1 do
            Engine.price engine ~task:v ~proc:q;
            let current_max' = max current_max (Engine.priced_eft engine) in
            if current_max' < !incumbent_makespan then begin
              let mark = Engine.n_commits engine in
              Engine.keep engine;
              Engine.commit_kept engine ~task:v;
              let ready' =
                List.filter (( <> ) v) ready
                @ List.filter
                    (fun u ->
                      (not (Schedule.is_placed sched u))
                      && Graph.fold_pred_edges g u ~init:true ~f:(fun ok e ->
                             ok && Schedule.is_placed sched (Graph.edge_src g e)))
                    (Graph.succs g v)
              in
              explore (remaining - 1) ready' current_max';
              Engine.rewind engine ~to_:mark
            end
            else Obs.Counters.(bump search_pruned_nodes)
          done)
        ready
  in
  explore n (Graph.entry_tasks g) 0.;
  !incumbent

let best_makespan ?params plat g =
  Schedule.makespan (best_schedule ?params plat g)
