module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

let check_shape costs g plat =
  if
    Array.length costs <> Graph.n_tasks g
    || Array.exists (fun row -> Array.length row <> Platform.p plat) costs
  then invalid_arg "Unrelated: cost matrix shape mismatch"

let ranks costs g plat =
  check_shape costs g plat;
  let p = float_of_int (Platform.p plat) in
  let mean = Array.map (fun row -> Array.fold_left ( +. ) 0. row /. p) costs in
  Ranking.bottom_up g ~task:(Ranking.Per_task mean)
    ~link:(Some (Platform.avg_link_cost plat))

let heft ?(params = Params.default) ~costs plat g =
  Obs.Span.with_ "heft-unrelated" @@ fun () ->
  check_shape costs g plat;
  let sched =
    Schedule.create
      ~exec_time:(fun v q -> costs.(v).(q))
      ~graph:g ~platform:plat ~model:params.Params.model ()
  in
  let engine = Engine.create ~policy:params.Params.policy sched in
  let priority = ranks costs g plat in
  Array.iter
    (fun v ->
      let (_ : int) = Engine.schedule_best engine ~task:v in
      ())
    (List_loop.decision_order ~priority g);
  sched

(* The HEFT paper's Figure 2 example: computation costs w(task, proc) and
   communication volumes on the edges (unit links make volume = cost). *)
let topcuoglu_example () =
  let costs =
    [|
      [| 14.; 16.; 9. |];
      [| 13.; 19.; 18. |];
      [| 11.; 13.; 19. |];
      [| 13.; 8.; 17. |];
      [| 12.; 13.; 10. |];
      [| 13.; 16.; 9. |];
      [| 7.; 15.; 11. |];
      [| 5.; 11.; 14. |];
      [| 18.; 12.; 20. |];
      [| 21.; 7.; 16. |];
    |]
  in
  let edges =
    [
      (0, 1, 18.); (0, 2, 12.); (0, 3, 9.); (0, 4, 11.); (0, 5, 14.);
      (1, 7, 19.); (1, 8, 16.); (2, 6, 23.); (3, 7, 27.); (3, 8, 23.);
      (4, 8, 13.); (5, 7, 15.); (6, 9, 17.); (7, 9, 11.); (8, 9, 13.);
    ]
  in
  let weights =
    Array.map (fun row -> Array.fold_left ( +. ) 0. row /. 3.) costs
  in
  let g = Graph.create ~name:"topcuoglu-fig2" ~weights ~edges () in
  let plat =
    Platform.fully_connected ~name:"topcuoglu-3" ~cycle_times:[| 1.; 1.; 1. |]
      ~link_cost:1. ()
  in
  (g, plat, costs)
