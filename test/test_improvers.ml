(* Anneal, Compare, Batch. *)

module O = Onesched
open Onesched_oracle
open Util

let one_port = O.Comm_model.one_port

let anneal_tests =
  [
    qtest ~count:15 "annealing stays valid and never regresses"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let sched = O.Heft.schedule plat g in
        let r =
          O.Anneal.improve
            ~params:{ O.Anneal.default_params with O.Anneal.steps = 60 }
            sched
        in
        O.Validate.is_valid r.O.Anneal.schedule
        && r.O.Anneal.final_makespan <= r.O.Anneal.initial_makespan +. 1e-9
        && Prelude.Stats.fequal
             (O.Schedule.makespan r.O.Anneal.schedule)
             r.O.Anneal.final_makespan);
    Alcotest.test_case "annealing is deterministic per seed" `Quick (fun () ->
        let g = O.Kernels.doolittle ~n:10 ~ccr:10. in
        let plat = O.Platform.paper_platform () in
        let sched = O.Heft.schedule plat g in
        let run () =
          (O.Anneal.improve
             ~params:{ O.Anneal.default_params with O.Anneal.steps = 100 }
             sched)
            .O.Anneal.final_makespan
        in
        check_float "same outcome" (run ()) (run ()));
    Alcotest.test_case "annealing escapes a pathological allocation" `Quick
      (fun () ->
        (* independent equal tasks all on one processor *)
        let g = O.Graph.create ~weights:(Array.make 8 4.) ~edges:[] () in
        let plat = O.Platform.homogeneous ~p:4 ~link_cost:1. in
        let sched = O.Refine.rebuild ~alloc:(fun _ -> 0) plat g in
        let r = O.Anneal.improve sched in
        check_bool "improved substantially" true
          (r.O.Anneal.final_makespan < r.O.Anneal.initial_makespan /. 2.));
    Alcotest.test_case "zero steps keeps the incumbent" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:5 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let r =
          O.Anneal.improve
            ~params:{ O.Anneal.default_params with O.Anneal.steps = 0 }
            sched
        in
        check_bool "no worse" true
          (r.O.Anneal.final_makespan <= O.Schedule.makespan sched +. 1e-9));
  ]

let compare_tests =
  [
    Alcotest.test_case "self-diff is the identity" `Quick (fun () ->
        let g = O.Kernels.laplace ~n:6 ~ccr:5. in
        let plat = O.Platform.paper_platform () in
        let sched = O.Heft.schedule plat g in
        let d = O.Compare.diff sched sched in
        check_float "ratio 1" 1. d.O.Compare.makespan_ratio;
        check_float "agreement 1" 1. d.O.Compare.allocation_agreement;
        check_bool "no moves" true (d.O.Compare.moved_tasks = []));
    Alcotest.test_case "diff counts moved tasks" `Quick (fun () ->
        let g = O.Graph.create ~weights:[| 1.; 1. |] ~edges:[] () in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let a = O.Refine.rebuild ~alloc:(fun _ -> 0) plat g in
        let b = O.Refine.rebuild ~alloc:(fun v -> v) plat g in
        let d = O.Compare.diff a b in
        check_int "one moved" 1 (List.length d.O.Compare.moved_tasks);
        check_int "one same" 1 d.O.Compare.same_allocation);
    Alcotest.test_case "rejects mismatched inputs" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let s1 =
          O.Heft.schedule plat (O.Kernels.fork_join ~n:3 ~ccr:1.)
        in
        let s2 =
          O.Heft.schedule plat (O.Kernels.fork_join ~n:4 ~ccr:1.)
        in
        check_bool "raises" true
          (try
             ignore (O.Compare.diff s1 s2);
             false
           with Invalid_argument _ -> true));
  ]

let batch_tests =
  [
    Alcotest.test_case "grid covers the full cross product" `Quick (fun () ->
        let cfg = O.Config.with_sizes (O.Config.paper ()) [ 6; 8 ] in
        let spec = O.Batch.default_spec cfg in
        let rows = O.Batch.run cfg spec in
        check_int "rows"
          (List.length spec.O.Batch.heuristics
          * List.length spec.O.Batch.testbeds
          * List.length spec.O.Batch.sizes)
          (List.length rows);
        check_bool "all valid" true
          (List.for_all (fun r -> r.O.Runner.valid) rows));
    Alcotest.test_case "csv shape" `Quick (fun () ->
        let cfg = O.Config.with_sizes (O.Config.paper ()) [ 6 ] in
        let spec =
          { (O.Batch.default_spec cfg) with
            O.Batch.testbeds = [ O.Suite.find "lu" ];
            O.Batch.heuristics = [ O.Registry.find "heft" ];
          }
        in
        let csv = O.Batch.to_csv (O.Batch.run cfg spec) in
        let lines = List.filter (( <> ) "") (String.split_on_char '\n' csv) in
        check_int "header + 1 row" 2 (List.length lines);
        check_bool "header" true
          (contains (List.hd lines) "testbed,n,heuristic"));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental kernel ≡ from-scratch Reference                         *)
(* ------------------------------------------------------------------ *)

let fingerprint sched =
  let g = O.Schedule.graph sched in
  let placements =
    List.init (O.Graph.n_tasks g) (fun t -> O.Schedule.placement_exn sched t)
  in
  (O.Schedule.makespan sched, placements, O.Schedule.comms sched)

(* Everything observable must match bit for bit: the incumbent trace
   (moves), every count, and the final schedule. *)
let refine_agrees sched =
  let inc = O.Refine.improve ~max_rounds:2 ~max_moves:4 sched in
  let ref_ = Refine_ref.improve ~max_rounds:2 ~max_moves:4 sched in
  inc.O.Refine.initial_makespan = ref_.O.Refine.initial_makespan
  && inc.O.Refine.final_makespan = ref_.O.Refine.final_makespan
  && inc.O.Refine.accepted_moves = ref_.O.Refine.accepted_moves
  && inc.O.Refine.evaluations = ref_.O.Refine.evaluations
  && inc.O.Refine.moves = ref_.O.Refine.moves
  && fingerprint inc.O.Refine.schedule = fingerprint ref_.O.Refine.schedule

let anneal_agrees ~steps sched =
  let params = { O.Anneal.default_params with O.Anneal.steps } in
  let inc = O.Anneal.improve ~params sched in
  let ref_ = Anneal_ref.improve ~params sched in
  inc.O.Anneal.initial_makespan = ref_.O.Anneal.initial_makespan
  && inc.O.Anneal.final_makespan = ref_.O.Anneal.final_makespan
  && inc.O.Anneal.accepted = ref_.O.Anneal.accepted
  && inc.O.Anneal.improved = ref_.O.Anneal.improved
  && inc.O.Anneal.moves = ref_.O.Anneal.moves
  && fingerprint inc.O.Anneal.schedule = fingerprint ref_.O.Anneal.schedule

(* All six testbeds × every registered heuristic × one-port and
   macro-dataflow: the PR 3-style bit-identity contract, now for the
   prefix-replay improvers. *)
let equivalence_tests =
  let models =
    [ ("one-port", O.Comm_model.one_port);
      ("macro-dataflow", O.Comm_model.macro_dataflow) ]
  in
  List.concat_map
    (fun (mname, model) ->
      List.map
        (fun (tb : O.Suite.t) ->
          Alcotest.test_case
            (Printf.sprintf "incremental = reference: %s, %s" tb.O.Suite.name
               mname)
            `Quick
            (fun () ->
              let n = max 3 tb.O.Suite.min_n in
              let plat = O.Platform.paper_platform () in
              let params = O.Params.of_model model in
              List.iter
                (fun (e : O.Registry.entry) ->
                  let g = tb.O.Suite.build ~n ~ccr:0.5 in
                  let sched = e.O.Registry.scheduler params plat g in
                  check_bool
                    (Printf.sprintf "%s refine agrees" e.O.Registry.name)
                    true (refine_agrees sched);
                  check_bool
                    (Printf.sprintf "%s anneal agrees" e.O.Registry.name)
                    true
                    (anneal_agrees ~steps:25 sched))
                O.Registry.all))
        O.Suite.all)
    models

let equivalence_property_tests =
  [
    qtest ~count:40 "refine incremental = reference on random instances"
      QCheck2.Gen.(tup3 graph_gen platform_gen model_gen)
      (fun (gspec, plat, model) ->
        let g = build_graph gspec in
        let sched = O.Heft.schedule ~params:(O.Params.of_model model) plat g in
        refine_agrees sched);
    qtest ~count:40 "anneal incremental = reference on random instances"
      QCheck2.Gen.(tup3 graph_gen platform_gen model_gen)
      (fun (gspec, plat, model) ->
        let g = build_graph gspec in
        let sched = O.Heft.schedule ~params:(O.Params.of_model model) plat g in
        anneal_agrees ~steps:30 sched);
  ]

let suite =
  anneal_tests @ compare_tests @ batch_tests @ equivalence_tests
  @ equivalence_property_tests
