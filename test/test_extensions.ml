(* The extension modules: ETF, Auto_b, Refine, Bounds, Export,
   Utilization, and the extra platform topologies. *)

module O = Onesched
open Util

let one_port = O.Comm_model.one_port

let etf_tests =
  [
    qtest ~count:40 "ETF yields valid schedules"
      QCheck2.Gen.(tup3 graph_gen platform_gen model_gen)
      (fun (params, plat, model) ->
        let g = build_graph params in
        scheduler_checks_out ~params:(O.Params.of_model model) plat g
          (fun params plat g -> O.Etf.schedule ~params plat g));
    Alcotest.test_case "ETF starts the globally earliest pair" `Quick (fun () ->
        (* two entry tasks of different weight on two same-speed procs:
           both can start at 0; the higher static level (heavier path)
           must win the tie *)
        let g =
          O.Graph.create ~weights:[| 1.; 5. |] ~edges:[] ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Etf.schedule plat g in
        let pl = O.Schedule.placement_exn sched 1 in
        check_float "heavy task starts at 0" 0. pl.O.Schedule.start);
  ]

let auto_b_tests =
  [
    Alcotest.test_case "candidate ladder covers the landmarks" `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        let cands = O.Auto_b.candidates plat in
        check_bool "has p" true (List.mem 10 cands);
        check_bool "has M" true (List.mem 38 cands);
        check_bool "has 1" true (List.mem 1 cands);
        check_bool "sorted"
          true
          (List.sort compare cands = cands));
    Alcotest.test_case "search returns the best trial" `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.doolittle ~n:20 ~ccr:10. in
        let r = O.Auto_b.search plat g in
        check_bool "best is min of trials" true
          (List.for_all (fun (_, m) -> r.O.Auto_b.best_makespan <= m +. 1e-9)
             r.O.Auto_b.trials);
        let direct =
          O.Schedule.makespan (O.Ilha.schedule ~params:(O.Params.make ~b:r.O.Auto_b.best_b ()) plat g)
        in
        check_float "schedule at best_b reproduces" r.O.Auto_b.best_makespan direct);
    qtest ~count:20 "auto-B never loses to default ILHA"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let auto = O.Auto_b.search plat g in
        let default = O.Schedule.makespan (O.Ilha.schedule plat g) in
        (* the default B is one of the sampled candidates *)
        auto.O.Auto_b.best_makespan <= default +. 1e-9);
  ]

let refine_tests =
  [
    qtest ~count:25 "refined schedules stay valid and never regress"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let sched = O.Heft.schedule plat g in
        let r = O.Refine.improve ~max_rounds:2 ~max_moves:5 sched in
        O.Validate.is_valid r.O.Refine.schedule
        && r.O.Refine.final_makespan <= r.O.Refine.initial_makespan +. 1e-9
        && Prelude.Stats.fequal
             (O.Schedule.makespan r.O.Refine.schedule)
             r.O.Refine.final_makespan);
    Alcotest.test_case "rebuild honours a forced allocation" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:4 ~ccr:1. in
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let alloc v = v mod 3 in
        let sched = O.Refine.rebuild ~alloc plat g in
        O.Validate.check_exn sched;
        for v = 0 to O.Graph.n_tasks g - 1 do
          check_int "placed as forced" (alloc v) (O.Schedule.proc_of_exn sched v)
        done);
    Alcotest.test_case "refinement can actually improve a bad allocation"
      `Quick (fun () ->
        (* all independent tasks dumped on one processor: moving any to the
           idle processor improves, and refine must find at least one *)
        let g =
          O.Graph.create ~weights:(Array.make 6 4.) ~edges:[] ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Refine.rebuild ~alloc:(fun _ -> 0) plat g in
        let r = O.Refine.improve sched in
        check_bool "improved" true
          (r.O.Refine.final_makespan < r.O.Refine.initial_makespan -. 1e-9);
        check_bool "some moves accepted" true (r.O.Refine.accepted_moves > 0));
  ]

let bounds_tests =
  [
    qtest ~count:60 "every schedule respects the lower bounds"
      QCheck2.Gen.(tup3 graph_gen platform_gen model_gen)
      (fun (params, plat, model) ->
        let g = build_graph params in
        let sched = O.Heft.schedule ~params:(O.Params.of_model model) plat g in
        let makespan = O.Schedule.makespan sched in
        let bound =
          if O.Comm_model.restricts_ports model then O.Bounds.one_port_fork g plat
          else O.Bounds.combined g plat
        in
        makespan >= bound -. 1e-9 && O.Bounds.quality sched >= 1. -. 1e-9);
    Alcotest.test_case "bounds on the Fig 1 fork" `Quick (fun () ->
        let g = O.Fork.example_fig1 () in
        let plat = O.Platform.homogeneous ~p:5 ~link_cost:1. in
        check_float "critical path 2" 2. (O.Bounds.critical_path g plat);
        check_float "total work 7/5" (7. /. 5.) (O.Bounds.total_work g plat);
        (* one-port: parent 1 + min over c of max(c local, (6-c) msgs + 1)
           = 1 + max(3, 4) = 5 — the bound is TIGHT on this instance *)
        check_float "one-port fork bound" 5. (O.Bounds.one_port_fork g plat));
    Alcotest.test_case "fork bound is tight on the example" `Quick (fun () ->
        (* optimal is 5 and the bound certifies exactly 5: quality 1.0 —
           the §2.3 example's makespan is provably optimal *)
        let g = O.Fork.example_fig1 () in
        let plat = O.Platform.homogeneous ~p:5 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        check_float "quality 1.0" 1.0 (O.Bounds.quality sched));
  ]

let export_tests =
  [
    Alcotest.test_case "chrome trace is well-formed" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:3 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let trace = O.Export.to_chrome_trace sched in
        check_bool "array" true
          (String.length trace > 2 && trace.[0] = '[');
        check_bool "has tasks" true (contains trace {|"name":"v0"|});
        check_bool "has thread metadata" true (contains trace "thread_name");
        check_bool "balanced braces" true
          (let opens = ref 0 and closes = ref 0 in
           String.iter
             (fun c ->
               if c = '{' then incr opens else if c = '}' then incr closes)
             trace;
           !opens = !closes && !opens > 0));
    Alcotest.test_case "csv has a row per event occurrence" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:3 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let csv = O.Export.to_csv sched in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
        in
        (* header + tasks + 2 rows per comm *)
        check_int "rows" (1 + O.Graph.n_tasks g + (2 * O.Schedule.n_comm_events sched))
          (List.length lines);
        (* a duplicated schedule adds one "copy" row per extra copy *)
        let g = O.Kernels.fork_join ~n:100 ~ccr:1. in
        let plat = O.Platform.paper_platform () in
        let sched = O.Heft_dup.schedule plat g in
        let rows = String.split_on_char '\n' (O.Export.to_csv sched) in
        let count kind =
          List.length
            (List.filter (String.starts_with ~prefix:(kind ^ ",")) rows)
        in
        let copies =
          List.fold_left
            (fun acc v -> acc + List.length (O.Schedule.dup_copies sched v))
            0
            (List.init (O.Graph.n_tasks g) Fun.id)
        in
        check_bool "has copies" true (copies > 0);
        check_int "copy rows" copies (count "copy");
        check_int "task rows" (O.Graph.n_tasks g) (count "task");
        check_int "comm rows"
          (2 * O.Schedule.n_comm_events sched)
          (count "comm"));
  ]

let utilization_tests =
  [
    Alcotest.test_case "fractions are consistent with metrics" `Quick (fun () ->
        let g = O.Kernels.laplace ~n:8 ~ccr:5. in
        let plat = O.Platform.paper_platform () in
        List.iter
          (fun sched ->
            let fracs = O.Utilization.compute_fractions sched in
            let metrics = O.Metrics.compute sched in
            check_float "mean matches metrics" metrics.O.Metrics.mean_utilization
              (Array.fold_left ( +. ) 0. fracs /. float_of_int (Array.length fracs)))
          [ O.Ilha.schedule plat g; dup_fork_join () ]);
    Alcotest.test_case "profile buckets stay in [0,1] and cover busy time"
      `Quick (fun () ->
        let g = O.Kernels.stencil ~n:6 ~ccr:3. in
        let plat = O.Platform.homogeneous ~p:4 ~link_cost:1. in
        List.iter
          (fun sched ->
            let p = O.Utilization.profile ~buckets:20 sched in
            Array.iter
              (Array.iter (fun v ->
                   check_bool "in range" true (v >= 0. && v <= 1.0 +. 1e-9)))
              p.O.Utilization.compute;
            (* bucket mass sums back to total busy fraction *)
            let fracs = O.Utilization.compute_fractions sched in
            let mass q =
              Array.fold_left ( +. ) 0. p.O.Utilization.compute.(q)
              /. float_of_int p.O.Utilization.buckets
            in
            let total = ref 0. in
            Array.iteri
              (fun q f ->
                check_bool "mass matches" true
                  (Prelude.Stats.fequal ~eps:1e-6 (mass q) f);
                total := !total +. mass q)
              fracs;
            (* and the mass is the busy time of every copy *)
            let busy = ref 0. in
            for v = 0 to O.Graph.n_tasks (O.Schedule.graph sched) - 1 do
              List.iter
                (fun (c : O.Schedule.placement) ->
                  busy := !busy +. (c.O.Schedule.finish -. c.O.Schedule.start))
                (O.Schedule.copies sched v)
            done;
            check_bool "mass covers every copy" true
              (Prelude.Stats.fequal ~eps:1e-6
                 (!total *. O.Schedule.makespan sched)
                 !busy))
          [ O.Heft.schedule plat g; dup_fork_join () ]);
    Alcotest.test_case "port fractions are 0 without communications" `Quick
      (fun () ->
        let g = O.Graph.create ~weights:[| 1.; 1. |] ~edges:[] () in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        Array.iter (fun f -> check_float "zero" 0. f)
          (O.Utilization.port_fractions sched));
    Alcotest.test_case "render shows every processor" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:5 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let out = O.Utilization.render (O.Utilization.profile sched) in
        check_bool "P0..P2" true
          (contains out "P0" && contains out "P1" && contains out "P2"));
  ]

let topology_tests =
  [
    Alcotest.test_case "ring routes around the shorter arc" `Quick (fun () ->
        let plat =
          O.Platform.ring ~cycle_times:(Array.make 6 1.) ~link_cost:1. ()
        in
        check_float "opposite side" 3. (O.Platform.link plat ~src:0 ~dst:3);
        check_float "neighbour" 1. (O.Platform.link plat ~src:0 ~dst:5));
    Alcotest.test_case "star routes through the hub" `Quick (fun () ->
        let plat =
          O.Platform.star ~cycle_times:(Array.make 4 1.) ~spoke_cost:2. ()
        in
        Alcotest.(check (list (pair int int)))
          "two hops" [ (1, 0); (0, 3) ]
          (O.Platform.route plat ~src:1 ~dst:3);
        check_float "cost" 4. (O.Platform.link plat ~src:1 ~dst:3));
    Alcotest.test_case "grid2d has mesh distances" `Quick (fun () ->
        let plat = O.Platform.grid2d ~rows:3 ~cols:3 ~cycle_time:1. ~link_cost:1. () in
        check_int "9 processors" 9 (O.Platform.p plat);
        check_float "manhattan" 4. (O.Platform.link plat ~src:0 ~dst:8));
    qtest ~count:30 "random platforms are well-formed"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let rng = O.Rng.create ~seed in
        let plat =
          O.Platform.random_heterogeneous rng ~p:6 ~min_cycle:2 ~max_cycle:9
            ~link_cost:1.
        in
        O.Platform.p plat = 6
        && O.Platform.min_cycle_time plat >= 2.
        && O.Load_balance.perfect_chunk plat >= 6);
  ]

let suite =
  etf_tests @ auto_b_tests @ refine_tests @ bounds_tests @ export_tests
  @ utilization_tests @ topology_tests
