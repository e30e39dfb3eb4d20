module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule
module Comm_model = Commmodel.Comm_model

(* The predecessor of [v] whose remote delivery onto [proc] looks most
   expensive: maximum representative finish plus direct-link price, ties
   to the lowest task id; -1 when there is none.  Predecessors already
   running on [proc] (any copy) and zero-data edges feed locally/freely
   and are skipped.  The representative copy is the engine's: earliest
   finish, ties to the lowest processor.  The route price is summed hop
   by hop along [Platform.next_hop], in route order. *)
let critical_remote_pred sched plat g v ~proc =
  let best_key = ref 0. and best_u = ref (-1) in
  for i = Graph.pred_first g v to Graph.pred_first g (v + 1) - 1 do
    let e = Graph.pred_edge g i in
    let u = Graph.edge_src g e in
    let data = Graph.edge_data g e in
    if
      (not (data <= 0.))
      && Schedule.copy_finish_on sched ~task:u ~proc = neg_infinity
    then begin
      let rep_fin = ref (Schedule.finish_of_exn sched u)
      and rep_proc = ref (Schedule.proc_of_exn sched u) in
      (match Schedule.dup_copies sched u with
      | [] -> ()
      | dups ->
          List.iter
            (fun (c : Schedule.placement) ->
              if
                c.finish < !rep_fin
                || (c.finish = !rep_fin && c.proc < !rep_proc)
              then begin
                rep_fin := c.finish;
                rep_proc := c.proc
              end)
            dups);
      let price = ref 0. and at = ref !rep_proc in
      while !at <> proc do
        let next = Platform.next_hop plat ~src:!at ~dst:proc in
        price := !price +. Platform.hop_cost plat ~src:!at ~dst:next;
        at := next
      done;
      let key = !rep_fin +. (data *. !price) in
      if
        not
          (!best_u >= 0
          && (!best_key > key || (!best_key = key && !best_u <= u)))
      then begin
        best_key := key;
        best_u := u
      end
    end
  done;
  !best_u

(* Price [v] on [q], then greedily duplicate up to [limit] critical
   remote predecessors onto [q] while each copy strictly lowers v's EFT.
   Each improving pricing is kept ({!Engine.keep}), and the best EFT is
   returned.  Kept duplications stay committed (the caller rewinds to its
   own mark when merely exploring); a failed attempt is rewound here.
   The state left behind is the one the kept pricing was made in, so
   the caller may commit it. *)
let explore engine sched plat g limit v q =
  Engine.price engine ~task:v ~proc:q;
  let best = ref (Engine.priced_eft engine) in
  Engine.keep engine;
  (try
     for _ = 1 to limit do
       let u = critical_remote_pred sched plat g v ~proc:q in
       if u < 0 then raise Exit;
       let mark = Engine.n_commits engine in
       Engine.schedule_copy_on engine ~task:u ~proc:q;
       Engine.price engine ~task:v ~proc:q;
       let eft = Engine.priced_eft engine in
       if eft < !best then begin
         Engine.keep engine;
         best := eft
       end
       else begin
         Engine.rewind engine ~to_:mark;
         raise Exit
       end
     done
   with Exit -> ());
  !best

let schedule ?(params = Params.default) plat g =
  match params.Params.model.Comm_model.regime with
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ ->
      (* phase accounting has no provenance rule for replicated producers;
         fall back to the single-copy algorithm *)
      Heft.schedule ~params plat g
  | Comm_model.Port ->
      Obs.Span.with_ "heft-dup" (fun () ->
          let priority =
            Obs.Span.with_ "rank" (fun () ->
                Ranking.upward ~averaging:params.Params.averaging g plat)
          in
          let limit = max 1 params.Params.dup_limit in
          let sched =
            Schedule.create ~graph:g ~platform:plat ~model:params.Params.model
              ()
          in
          let engine = Engine.create ~policy:params.Params.policy sched in
          let order = List_loop.decision_order ~priority g in
          let p = Platform.p plat in
          Obs.Span.with_ "map" (fun () ->
              Array.iter
                (fun v ->
                  let best_eft = ref infinity and bq = ref (-1) in
                  for q = 0 to p - 1 do
                    let mark = Engine.n_commits engine in
                    let eft = explore engine sched plat g limit v q in
                    Engine.rewind engine ~to_:mark;
                    if !bq < 0 || not (!best_eft <= eft) then begin
                      best_eft := eft;
                      bq := q
                    end
                  done;
                  (* replay the winning exploration, keeping its copies,
                     and commit the pricing it kept *)
                  let (_ : float) = explore engine sched plat g limit v !bq in
                  Engine.commit_kept engine ~task:v)
                order);
          (* duplication must never lose to plain single-copy HEFT *)
          let plain = Heft.schedule ~params plat g in
          if Schedule.makespan plain < Schedule.makespan sched then plain
          else sched)
