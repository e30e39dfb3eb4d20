module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

let default_handle engine v =
  let (_ : int) = Engine.schedule_best engine ~task:v in
  ()

(* The Kahn drain below visits tasks in an order that depends only on the
   graph and the priorities — never on where tasks end up.  Materializing
   it lets the prefix-replay improvers fix the decision order once and
   rebuild arbitrary suffixes of it. *)
let decision_order ~priority g =
  let n = Graph.n_tasks g in
  let ready = Prelude.Pqueue.Int_heap.create ~rank:priority () in
  let remaining = Array.init n (Graph.in_degree g) in
  for v = 0 to n - 1 do
    if remaining.(v) = 0 then Prelude.Pqueue.Int_heap.add ready v
  done;
  let order = Array.make n 0 in
  let k = ref 0 in
  let rec drain () =
    match Prelude.Pqueue.Int_heap.pop ready with
    | None -> ()
    | Some v ->
        order.(!k) <- v;
        incr k;
        Graph.iter_succ_edges g v ~f:(fun e ->
            let u = Graph.edge_dst g e in
            remaining.(u) <- remaining.(u) - 1;
            if remaining.(u) = 0 then Prelude.Pqueue.Int_heap.add ready u);
        drain ()
  in
  drain ();
  if !k <> n then invalid_arg "List_loop.decision_order: cyclic graph";
  order

let run ?(params = Params.default) ~priority ?(handle = default_handle) plat g =
  let sched =
    Schedule.create ~graph:g ~platform:plat ~model:params.Params.model ()
  in
  let engine = Engine.create ~policy:params.Params.policy sched in
  let order = decision_order ~priority g in
  Obs.Span.with_ "map" (fun () ->
      Array.iter
        (fun v -> Obs.Span.with_ "place" (fun () -> handle engine v))
        order);
  sched
