module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

let schedule ?(params = Params.default) plat g =
  Obs.Span.with_ "gdl" @@ fun () ->
  let sl = Ranking.static_level g plat in
  let p = Platform.p plat in
  let sched = Schedule.create ~graph:g ~platform:plat ~model:params.Params.model () in
  let engine = Engine.create ~policy:params.Params.policy sched in
  let remaining = Array.init (Graph.n_tasks g) (Graph.in_degree g) in
  let ready = ref [] in
  for v = Graph.n_tasks g - 1 downto 0 do
    if remaining.(v) = 0 then ready := v :: !ready
  done;
  let delta v q =
    Platform.avg_execution_time plat (Graph.weight g v)
    -. (Graph.weight g v *. Platform.cycle_time plat q)
  in
  while !ready <> [] do
    (* Highest dynamic level among all (ready task, processor) pairs; ties
       break towards the smaller task id, then processor index, because we
       scan in that order with strict improvement. *)
    let best = ref None in
    List.iter
      (fun v ->
        for q = 0 to p - 1 do
          Engine.price engine ~task:v ~proc:q;
          let dl = sl.(v) -. Engine.priced_est engine +. delta v q in
          match !best with
          | Some (dl', _) when dl' >= dl -> ()
          | _ ->
              Engine.keep engine;
              best := Some (dl, v)
        done)
      (List.sort compare !ready);
    match !best with
    | None -> assert false
    | Some (_, v) ->
        Engine.commit_kept engine ~task:v;
        ready := List.filter (fun u -> u <> v) !ready;
        Graph.iter_succ_edges g v ~f:(fun e ->
            let u = Graph.edge_dst g e in
            remaining.(u) <- remaining.(u) - 1;
            if remaining.(u) = 0 then ready := u :: !ready)
  done;
  sched
