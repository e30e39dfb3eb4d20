(* Task-graph core: construction validation, adjacency, topological order,
   levels, analysis, generators, DOT. *)

module O = Onesched
open Util

let tiny () =
  O.Graph.create ~name:"tiny" ~weights:[| 1.; 2.; 3.; 4. |]
    ~edges:[ (0, 1, 5.); (0, 2, 6.); (1, 3, 7.); (2, 3, 8.) ]
    ()

let construction_tests =
  [
    Alcotest.test_case "accessors" `Quick (fun () ->
        let g = tiny () in
        check_int "tasks" 4 (O.Graph.n_tasks g);
        check_int "edges" 4 (O.Graph.n_edges g);
        check_float "weight" 3. (O.Graph.weight g 2);
        check_float "total" 10. (O.Graph.total_weight g);
        Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (O.Graph.preds g 3);
        Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (O.Graph.succs g 0);
        check_int "in-degree" 2 (O.Graph.in_degree g 3);
        check_int "out-degree" 2 (O.Graph.out_degree g 0);
        Alcotest.(check (list int)) "entries" [ 0 ] (O.Graph.entry_tasks g);
        Alcotest.(check (list int)) "exits" [ 3 ] (O.Graph.exit_tasks g);
        (match O.Graph.find_edge g ~src:1 ~dst:3 with
        | Some e -> check_float "edge data" 7. e.O.Graph.data
        | None -> Alcotest.fail "edge 1->3 missing");
        check_bool "no edge 3->0" true (O.Graph.find_edge g ~src:3 ~dst:0 = None));
    Alcotest.test_case "rejects cycles" `Quick (fun () ->
        Alcotest.check_raises "cycle" (Invalid_argument "Graph.create: cycle detected")
          (fun () ->
            ignore
              (O.Graph.create ~weights:[| 1.; 1. |]
                 ~edges:[ (0, 1, 0.); (1, 0, 0.) ]
                 ())));
    Alcotest.test_case "rejects self-loops, dups, bad refs" `Quick (fun () ->
        let mk edges = ignore (O.Graph.create ~weights:[| 1.; 1. |] ~edges ()) in
        Alcotest.check_raises "self" (Invalid_argument "Graph.create: self-loop")
          (fun () -> mk [ (0, 0, 1.) ]);
        Alcotest.check_raises "dup" (Invalid_argument "Graph.create: duplicate edge")
          (fun () -> mk [ (0, 1, 1.); (0, 1, 2.) ]);
        let mk4 edges = O.Graph.create ~weights:[| 1.; 1.; 1.; 1. |] ~edges () in
        Alcotest.check_raises "dup apart, shared destination"
          (Invalid_argument "Graph.create: duplicate edge") (fun () ->
            ignore (mk4 [ (0, 3, 1.); (0, 2, 1.); (1, 2, 1.); (0, 2, 1.) ]));
        Alcotest.check_raises "dup reported before the cycle"
          (Invalid_argument "Graph.create: duplicate edge") (fun () ->
            ignore (mk4 [ (0, 1, 1.); (1, 0, 1.); (0, 1, 1.) ]));
        check_int "shared destinations are not dups" 4
          (O.Graph.n_edges (mk4 [ (0, 2, 1.); (1, 2, 1.); (0, 3, 1.); (1, 3, 1.) ]));
        Alcotest.check_raises "range"
          (Invalid_argument "Graph.create: edge endpoint out of range") (fun () ->
            mk [ (0, 7, 1.) ]));
    Alcotest.test_case "rejects negative costs" `Quick (fun () ->
        Alcotest.check_raises "weight"
          (Invalid_argument "Graph.create: negative weight on task 0") (fun () ->
            ignore (O.Graph.create ~weights:[| -1. |] ~edges:[] ()));
        Alcotest.check_raises "data"
          (Invalid_argument "Graph.create: negative edge data") (fun () ->
            ignore
              (O.Graph.create ~weights:[| 1.; 1. |] ~edges:[ (0, 1, -2.) ] ())));
    Alcotest.test_case "with_data rescales" `Quick (fun () ->
        let g = tiny () in
        let g' = O.Graph.with_data g ~f:(fun e -> 2. *. e.O.Graph.data) in
        check_float "doubled" 10. (O.Graph.edge_data g' 0);
        check_float "original kept" 5. (O.Graph.edge_data g 0));
    Alcotest.test_case "topological order respects edges" `Quick (fun () ->
        let g = tiny () in
        let order = O.Graph.topological_order g in
        Alcotest.(check (array int)) "deterministic" [| 0; 1; 2; 3 |] order);
  ]

let levels_tests =
  [
    Alcotest.test_case "top/bottom levels" `Quick (fun () ->
        let g = tiny () in
        Alcotest.(check (array int)) "top" [| 0; 1; 1; 2 |] (O.Levels.top g);
        Alcotest.(check (array int)) "bottom" [| 2; 1; 1; 0 |] (O.Levels.bottom g);
        check_int "depth" 3 (O.Levels.depth g);
        check_int "width" 2 (O.Levels.width g));
    Alcotest.test_case "analysis summary" `Quick (fun () ->
        let s = O.Analysis.summarize (tiny ()) in
        check_int "depth" 3 s.O.Analysis.depth;
        check_float "cp weight" 8. s.O.Analysis.critical_path_weight;
        check_float "ccr" 2.6 s.O.Analysis.ccr);
    Alcotest.test_case "critical path follows heaviest branch" `Quick (fun () ->
        let g = tiny () in
        Alcotest.(check (list int)) "path" [ 0; 2; 3 ] (O.Analysis.critical_path g));
    qtest ~count:200 "levels are consistent with edges" graph_gen (fun params ->
        let g = build_graph params in
        let top = O.Levels.top g and bottom = O.Levels.bottom g in
        List.for_all
          (fun (e : O.Graph.edge) ->
            top.(e.src) < top.(e.dst) && bottom.(e.src) > bottom.(e.dst))
          (O.Graph.edges g));
  ]

let generator_tests =
  [
    qtest ~count:200 "generators build valid graphs" graph_gen (fun params ->
        let g = build_graph params in
        O.Graph.check_invariants g;
        true);
    qtest ~count:50 "out-tree has in-degree <= 1"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let rng = O.Rng.create ~seed in
        let g = O.Generators.out_tree rng ~n:15 ~max_arity:3 ~max_weight:4 ~max_data:4 in
        List.for_all
          (fun v -> O.Graph.in_degree g v <= 1)
          (List.init (O.Graph.n_tasks g) Fun.id));
    qtest ~count:50 "series-parallel has single source and sink"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let rng = O.Rng.create ~seed in
        let g = O.Generators.series_parallel rng ~depth:3 ~max_weight:4 ~max_data:4 in
        List.length (O.Graph.entry_tasks g) = 1
        && List.length (O.Graph.exit_tasks g) = 1);
    Alcotest.test_case "disjoint union schedules a batch of jobs" `Quick
      (fun () ->
        let a = O.Kernels.fork_join ~n:3 ~ccr:2. in
        let b = O.Kernels.laplace ~n:3 ~ccr:2. in
        let g, offsets = O.Graph.disjoint_union [ a; b ] in
        O.Graph.check_invariants g;
        check_int "total tasks" (O.Graph.n_tasks a + O.Graph.n_tasks b)
          (O.Graph.n_tasks g);
        Alcotest.(check (array int)) "offsets" [| 0; O.Graph.n_tasks a |] offsets;
        check_float "weights preserved" (O.Graph.weight b 0)
          (O.Graph.weight g offsets.(1));
        (* the union schedules like any graph *)
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        check_bool "valid batch schedule" true (O.Validate.is_valid sched));
    qtest ~count:50 "disjoint union preserves edge counts"
      QCheck2.Gen.(tup2 graph_gen graph_gen)
      (fun (p1, p2) ->
        let a = build_graph p1 and b = build_graph p2 in
        let g, _ = O.Graph.disjoint_union [ a; b ] in
        O.Graph.n_edges g = O.Graph.n_edges a + O.Graph.n_edges b);
    Alcotest.test_case "dot export mentions every task" `Quick (fun () ->
        let g = tiny () in
        let dot = O.Dot.to_string g in
        List.iter
          (fun v ->
            check_bool (Printf.sprintf "t%d" v) true
              (contains dot (Printf.sprintf "t%d " v)))
          [ 0; 1; 2; 3 ]);
  ]

let suite = construction_tests @ levels_tests @ generator_tests
