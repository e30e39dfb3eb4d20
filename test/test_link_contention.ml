(* The §2.2 Sinnen-Sousa link-contention model: one message per direct
   link at a time, orthogonal to port disciplines, visible only when
   routes share links. *)

module O = Onesched
open Util

let ss = O.Comm_model.link_contention

(* Two independent producer->consumer pairs; under macro-dataflow the two
   messages overlap freely; under link contention they serialise exactly
   when they cross the same link. *)
let two_pairs () =
  O.Graph.create ~name:"two-pairs" ~weights:[| 1.; 1.; 1.; 1. |]
    ~edges:[ (0, 2, 4.); (1, 3, 4.) ]
    ()

let behaviour_tests =
  [
    Alcotest.test_case "same link serialises, distinct links overlap" `Quick
      (fun () ->
        let g = two_pairs () in
        let plat = O.Platform.homogeneous ~p:4 ~link_cost:1. in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model:ss () in
        (* both messages on the SAME link 0-1 must serialise *)
        let _ = O.Schedule.add_comm sched ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        check_bool "same link busy" true
          (try
             ignore (O.Schedule.add_comm sched ~edge:1 ~src_proc:1 ~dst_proc:0 ~start:2.);
             false
           with Invalid_argument _ -> true);
        (* a message on a different link at the same instant is fine *)
        let _ = O.Schedule.add_comm sched ~edge:1 ~src_proc:2 ~dst_proc:3 ~start:2. in
        check_int "two comms" 2 (O.Schedule.n_comm_events sched));
    Alcotest.test_case "ports stay unrestricted under pure link contention"
      `Quick (fun () ->
        (* one sender, two receivers over distinct links: overlapping sends
           are legal (Sinnen-Sousa does not restrict ports) *)
        let g =
          O.Graph.create ~name:"fan" ~weights:[| 1.; 1.; 1. |]
            ~edges:[ (0, 1, 4.); (0, 2, 4.) ]
            ()
        in
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model:ss () in
        O.Schedule.place_task sched ~task:0 ~proc:0 ~start:0.;
        let _ = O.Schedule.add_comm sched ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        let _ = O.Schedule.add_comm sched ~edge:1 ~src_proc:0 ~dst_proc:2 ~start:1. in
        check_int "parallel sends allowed" 2 (O.Schedule.n_comm_events sched));
    Alcotest.test_case "routed star contends on shared spokes" `Quick (fun () ->
        (* peripheral->peripheral routes share the hub's spokes: messages
           1->2 and 3->2 both traverse link 0-2 and must serialise there *)
        let plat =
          O.Platform.star ~cycle_times:(Array.make 4 1.) ~spoke_cost:1. ()
        in
        let g =
          O.Graph.create ~name:"converge" ~weights:[| 1.; 1.; 1. |]
            ~edges:[ (0, 2, 3.); (1, 2, 3.) ]
            ()
        in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model:ss () in
        let engine = O.Engine.create sched in
        O.Engine.schedule_on engine ~task:0 ~proc:1;
        O.Engine.schedule_on engine ~task:1 ~proc:3;
        O.Engine.schedule_on engine ~task:2 ~proc:2;
        (* each message: 2 hops of 3; ready at 1; hub->2 segments share a
           link, so the second arrival is pushed past the first *)
        check_int "four hops" 4 (O.Schedule.n_comm_events sched);
        O.Validate.check_exn sched;
        let makespan_ss = O.Schedule.makespan sched in
        (* same story without link contention finishes strictly earlier *)
        let sched2 =
          O.Schedule.create ~graph:g ~platform:plat
            ~model:O.Comm_model.macro_dataflow ()
        in
        let engine2 = O.Engine.create sched2 in
        O.Engine.schedule_on engine2 ~task:0 ~proc:1;
        O.Engine.schedule_on engine2 ~task:1 ~proc:3;
        O.Engine.schedule_on engine2 ~task:2 ~proc:2;
        check_bool "contention costs time" true
          (makespan_ss > O.Schedule.makespan sched2 +. 1e-9));
    Alcotest.test_case "model naming" `Quick (fun () ->
        Alcotest.(check string) "ss" "link-contention" (O.Comm_model.name ss);
        Alcotest.(check string)
          "combined" "one-port+links"
          (O.Comm_model.name (O.Comm_model.with_link_contention O.Comm_model.one_port));
        check_bool "roundtrip" true
          (O.Comm_model.equal ss (O.Comm_model.of_name "link-contention")));
  ]

let property_tests =
  [
    qtest ~count:60 "heuristics stay valid under link contention"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        scheduler_checks_out ~params:(O.Params.of_model ss) plat g
          (fun params plat g -> O.Heft.schedule ~params plat g)
        && scheduler_checks_out
             ~params:
               (O.Params.of_model
                  (O.Comm_model.with_link_contention O.Comm_model.one_port))
             plat g
             (fun params plat g -> O.Ilha.schedule ~params plat g));
    qtest ~count:40 "single-evaluation slots are delayed by contention"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        (* identical committed state, one candidate evaluation: adding the
           link restriction can only push the start later (scheduling
           anomalies need diverging decision histories, which a single
           evaluation excludes) *)
        let rng = O.Rng.create ~seed in
        let g =
          O.Generators.layered rng ~layers:3 ~width:3 ~edge_prob:0.6
            ~max_weight:4 ~max_data:5
        in
        let plat = O.Platform.star ~cycle_times:(Array.make 4 1.) ~spoke_cost:1. () in
        let order = O.Graph.topological_order g in
        let est model =
          let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
          let engine = O.Engine.create sched in
          (* identical deterministic placements for every prefix *)
          Array.iteri
            (fun i v ->
              if i < Array.length order - 1 then
                O.Engine.schedule_on engine ~task:v ~proc:(i mod 4))
            order;
          let last = order.(Array.length order - 1) in
          O.Engine.price engine ~task:last ~proc:2;
          O.Engine.priced_est engine
        in
        est ss >= est O.Comm_model.macro_dataflow -. 1e-9);
    qtest ~count:40 "pert compaction stays valid under link contention"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let sched = O.Heft.schedule ~params:(O.Params.of_model ss) plat g in
        let pert = O.Pert.build sched in
        O.Pert.compacted_makespan pert <= O.Schedule.makespan sched +. 1e-9);
  ]

let suite = behaviour_tests @ property_tests
