module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

let schedule ?(params = Params.default) plat g =
  Obs.Span.with_ "etf" @@ fun () ->
  let sl = Ranking.static_level g plat in
  let p = Platform.p plat in
  let sched = Schedule.create ~graph:g ~platform:plat ~model:params.Params.model () in
  let engine = Engine.create ~policy:params.Params.policy sched in
  let remaining = Array.init (Graph.n_tasks g) (Graph.in_degree g) in
  let ready = ref [] in
  for v = Graph.n_tasks g - 1 downto 0 do
    if remaining.(v) = 0 then ready := v :: !ready
  done;
  while !ready <> [] do
    (* Globally earliest start; ties by higher static level, then scan
       order (ascending task id, processor index). *)
    let best = ref None in
    List.iter
      (fun v ->
        for q = 0 to p - 1 do
          Engine.price engine ~task:v ~proc:q;
          let est = Engine.priced_est engine in
          let better =
            match !best with
            | None -> true
            | Some (est', sl', _) ->
                (* one relative tolerance for both keys, so that the
                   outcome does not depend on the platform's time unit *)
                if Prelude.Stats.fequal est est' then
                  sl.(v) > sl' && not (Prelude.Stats.fequal sl.(v) sl')
                else est < est'
          in
          if better then begin
            Engine.keep engine;
            best := Some (est, sl.(v), v)
          end
        done)
      (List.sort compare !ready);
    match !best with
    | None -> assert false
    | Some (_, _, v) ->
        Engine.commit_kept engine ~task:v;
        ready := List.filter (( <> ) v) !ready;
        Graph.iter_succ_edges g v ~f:(fun e ->
            let u = Graph.edge_dst g e in
            remaining.(u) <- remaining.(u) - 1;
            if remaining.(u) = 0 then ready := u :: !ready)
  done;
  sched
