(* ILHA's chunk mechanics in isolation: quotas, scans, chunk boundaries,
   the reschedule variant, plus engine no-overlap semantics. *)

module O = Onesched
open Util

let one_port = O.Comm_model.one_port

let quota_tests =
  [
    Alcotest.test_case "zero-comm scan respects the quota" `Quick (fun () ->
        (* 6 unit children of one parent, cheap messages (0.5), B = 6:
           the chunk weighs 6, each of the two same-speed processors gets
           quota 3, so Step 1 may place exactly 3 children with the parent
           (zero communications); the other 3 are EFT-placed, costing at
           most 3 messages. *)
        let weights = Array.make 8 1. in
        let edges = List.init 6 (fun i -> (0, 2 + i, 0.5)) in
        let g = O.Graph.create ~name:"quota" ~weights ~edges () in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Ilha.schedule ~params:(O.Params.make ~b:6 ()) plat g in
        O.Validate.check_exn sched;
        let p0 = O.Schedule.proc_of_exn sched 0 in
        let on_p0 =
          List.length
            (List.filter
               (fun v -> O.Schedule.proc_of_exn sched v = p0)
               (List.init 6 (fun i -> 2 + i)))
        in
        check_bool "at least the quota stays local" true (on_p0 >= 3);
        check_bool "at most the step-2 tasks communicate" true
          (O.Schedule.n_comm_events sched <= 3));
    Alcotest.test_case "one-comm scan accepts single-crossing placements"
      `Quick (fun () ->
        (* toy graph: ab1/ab2 have parents on both processors; the
           one-comm scan may place them where only one message crosses,
           under quota, instead of falling to HEFT *)
        let g = O.Toy.graph () in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched =
          O.Ilha.schedule ~params:(O.Params.make ~b:8 ~scan:O.Params.Scan_one_comm ()) plat g
        in
        O.Validate.check_exn sched;
        check_bool "no more comms than the zero-comm variant" true
          (O.Schedule.n_comm_events sched <= 2));
    Alcotest.test_case "chunking processes high ranks first" `Quick (fun () ->
        (* B = 1 degenerates ILHA to HEFT exactly *)
        let g = O.Kernels.doolittle ~n:12 ~ccr:10. in
        let plat = O.Platform.paper_platform () in
        let heft = O.Heft.schedule plat g in
        let ilha1 = O.Ilha.schedule ~params:(O.Params.make ~b:1 ()) plat g in
        check_float "identical makespans"
          (O.Schedule.makespan heft) (O.Schedule.makespan ilha1);
        for v = 0 to O.Graph.n_tasks g - 1 do
          check_int "identical mapping"
            (O.Schedule.proc_of_exn heft v)
            (O.Schedule.proc_of_exn ilha1 v)
        done);
    qtest ~count:30 "reschedule variant stays valid and complete"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let sched = O.Ilha.schedule ~params:(O.Params.make ~reschedule:true ()) plat g in
        O.Schedule.all_placed sched && O.Validate.is_valid sched);
    qtest ~count:30 "any B >= 1 yields complete valid schedules"
      QCheck2.Gen.(tup2 graph_gen (int_range 1 60))
      (fun (params, b) ->
        let g = build_graph params in
        let plat = O.Platform.paper_platform () in
        let sched = O.Ilha.schedule ~params:(O.Params.make ~b ()) plat g in
        O.Schedule.all_placed sched && O.Validate.is_valid sched);
    Alcotest.test_case "B < 1 is rejected" `Quick (fun () ->
        let g = O.Toy.graph () in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        Alcotest.check_raises "b=0" (Invalid_argument "Ilha.schedule: b < 1")
          (fun () -> ignore (O.Ilha.schedule ~params:(O.Params.make ~b:0 ()) plat g)));
    Alcotest.test_case "default B is the perfect chunk when integral" `Quick
      (fun () ->
        check_int "paper platform" 38 (O.Ilha.default_b (O.Platform.paper_platform ()));
        let fractional =
          O.Platform.fully_connected ~cycle_times:[| 1.5; 2.5 |] ~link_cost:1. ()
        in
        check_int "falls back to p" 2 (O.Ilha.default_b fractional));
  ]

let no_overlap_tests =
  [
    Alcotest.test_case "no-overlap comm waits for the sender's computation"
      `Quick (fun () ->
        let g =
          O.Graph.create ~weights:[| 2.; 1.; 1. |]
            ~edges:[ (0, 2, 3.) ]
            ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let model = O.Comm_model.no_overlap one_port in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
        let engine = O.Engine.create sched in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        (* task 1 also on P0, right after task 0: [2, 3) *)
        O.Engine.schedule_on engine ~task:1 ~proc:0;
        (* now evaluate task 2 on P1: the message (3 units) cannot overlap
           P0's computation, so it starts at 3 and arrives at 6 *)
        O.Engine.schedule_on engine ~task:2 ~proc:1;
        check_float "est = 6" 6. (O.Schedule.start_of_exn sched 2);
        O.Validate.check_exn sched);
    Alcotest.test_case "with overlap the same message leaves at 2" `Quick
      (fun () ->
        let g =
          O.Graph.create ~weights:[| 2.; 1.; 1. |]
            ~edges:[ (0, 2, 3.) ]
            ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model:one_port () in
        let engine = O.Engine.create sched in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.schedule_on engine ~task:1 ~proc:0;
        O.Engine.price engine ~task:2 ~proc:1;
        check_float "est = 5" 5. (O.Engine.priced_est engine));
  ]

let metrics_tests =
  [
    Alcotest.test_case "load imbalance is zero for a perfectly balanced run"
      `Quick (fun () ->
        let g = O.Graph.create ~weights:[| 2.; 2. |] ~edges:[] () in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let m = O.Metrics.compute sched in
        check_float "balanced" 0. m.O.Metrics.max_load_imbalance;
        check_float "speedup 2" 2. m.O.Metrics.speedup);
    Alcotest.test_case "gantt hides port rows under macro-dataflow" `Quick
      (fun () ->
        let g = O.Kernels.fork_join ~n:3 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule ~params:(O.Params.of_model O.Comm_model.macro_dataflow) plat g in
        let out = O.Gantt.render sched in
        check_bool "no send row" false (contains out "send");
        let out' = O.Gantt.render ~show_ports:true sched in
        check_bool "forced send row" true (contains out' "send"));
  ]

let suite = quota_tests @ no_overlap_tests @ metrics_tests
