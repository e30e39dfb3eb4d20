(* Platforms: validation, routing, averaged quantities, the paper platform. *)

module O = Onesched
open Util

let paper_tests =
  [
    Alcotest.test_case "paper platform shape" `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        check_int "p" 10 (O.Platform.p plat);
        Alcotest.(check (array (float 0.)))
          "cycle times"
          [| 6.; 6.; 6.; 6.; 6.; 10.; 10.; 10.; 15.; 15. |]
          (O.Platform.cycle_times plat);
        check_float "fastest" 6. (O.Platform.min_cycle_time plat);
        check_float "bound 7.6" 7.6 (O.Platform.speedup_bound plat);
        check_float "unit links" 1. (O.Platform.link plat ~src:0 ~dst:9);
        check_float "zero diagonal" 0. (O.Platform.link plat ~src:3 ~dst:3));
  ]

let validation_tests =
  [
    Alcotest.test_case "rejects bad inputs" `Quick (fun () ->
        Alcotest.check_raises "no procs" (Invalid_argument "Platform: no processors")
          (fun () ->
            ignore (O.Platform.create ~cycle_times:[||] ~link:[||] ()));
        Alcotest.check_raises "zero cycle"
          (Invalid_argument "Platform: cycle-times must be positive") (fun () ->
            ignore (O.Platform.fully_connected ~cycle_times:[| 0. |] ~link_cost:1. ()));
        Alcotest.check_raises "diag"
          (Invalid_argument "Platform: link diagonal must be zero") (fun () ->
            ignore
              (O.Platform.create ~cycle_times:[| 1.; 1. |]
                 ~link:[| [| 1.; 1. |]; [| 1.; 0. |] |]
                 ())));
    Alcotest.test_case "disconnected topology rejected" `Quick (fun () ->
        Alcotest.check_raises "disconnected"
          (Invalid_argument "Platform.with_topology: disconnected interconnect")
          (fun () ->
            ignore
              (O.Platform.with_topology ~cycle_times:[| 1.; 1.; 1. |]
                 ~links:[ (0, 1, 1.) ] ())));
  ]

let routing_tests =
  [
    Alcotest.test_case "routes follow cheapest paths" `Quick (fun () ->
        let plat =
          O.Platform.with_topology ~cycle_times:[| 1.; 1.; 1.; 1. |]
            ~links:[ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (0, 3, 10.) ]
            ()
        in
        Alcotest.(check (list (pair int int)))
          "multi-hop route" [ (0, 1); (1, 2); (2, 3) ]
          (O.Platform.route plat ~src:0 ~dst:3);
        check_float "route cost" 3. (O.Platform.link plat ~src:0 ~dst:3);
        Alcotest.(check (list (pair int int)))
          "self route" [] (O.Platform.route plat ~src:2 ~dst:2);
        check_float "direct hop kept" 1. (O.Platform.hop_cost plat ~src:0 ~dst:1);
        Alcotest.check_raises "no direct link"
          (Invalid_argument "Platform.hop_cost: no direct link") (fun () ->
            ignore (O.Platform.hop_cost plat ~src:0 ~dst:2)));
    Alcotest.test_case "fully connected routes are single hops" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:4 ~link_cost:2. in
        Alcotest.(check (list (pair int int)))
          "one hop" [ (1, 3) ]
          (O.Platform.route plat ~src:1 ~dst:3));
  ]

let averaging_tests =
  [
    Alcotest.test_case "aggregate speed and fractions" `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        check_float "aggregate" (5. /. 6. +. 0.3 +. (2. /. 15.))
          (O.Platform.aggregate_speed plat);
        let fracs =
          List.init 10 (fun i -> O.Platform.balanced_fraction plat i)
        in
        check_float "fractions sum to 1" 1. (List.fold_left ( +. ) 0. fracs));
    Alcotest.test_case "avg execution time matches the paper's formula"
      `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        (* p * w / sum(1/t): 10 * 1 / (19/15) = 150/19 *)
        check_float "unit task" (150. /. 19.) (O.Platform.avg_execution_time plat 1.));
    Alcotest.test_case "avg link cost is harmonic" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:4. in
        check_float "uniform" 4. (O.Platform.avg_link_cost plat);
        let single = O.Platform.homogeneous ~p:1 ~link_cost:1. in
        check_float "single proc" 0. (O.Platform.avg_link_cost single));
    qtest ~count:200 "constants computed at create are the §4.1 formulas, bit for bit"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 8) (int_range 1 20))
          (list_size (int_range 0 12)
             (triple (int_bound 7) (int_bound 7) (int_range 0 9))))
      (fun (cts, links) ->
        let cycle_times = Array.of_list (List.map float_of_int cts) in
        let p = Array.length cycle_times in
        let links =
          List.filter_map
            (fun (i, j, c) ->
              if i < p && j < p && i <> j then Some (i, j, float_of_int c /. 3.)
              else None)
            links
        in
        (* a chain keeps every platform connected *)
        let chain = List.init (p - 1) (fun i -> (i, i + 1, 1.5)) in
        let plat =
          O.Platform.with_topology ~cycle_times ~links:(chain @ links) ()
        in
        (* the list folds they replace: every route cost, harmonic mean *)
        let speed =
          Array.fold_left (fun acc ct -> acc +. (1. /. ct)) 0. cycle_times
        in
        let link =
          if p = 1 then 0.
          else begin
            let costs = ref [] in
            for q = 0 to p - 1 do
              for r = 0 to p - 1 do
                if q <> r then
                  costs := O.Platform.link plat ~src:q ~dst:r :: !costs
              done
            done;
            if List.mem 0. !costs then 0. else O.Stats.harmonic_mean !costs
          end
        in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        same speed (O.Platform.aggregate_speed plat)
        && same link (O.Platform.avg_link_cost plat)
        && same
             (float_of_int p *. 7. /. speed)
             (O.Platform.avg_execution_time plat 7.));
  ]

let model_tests =
  [
    Alcotest.test_case "model names roundtrip" `Quick (fun () ->
        List.iter
          (fun m ->
            check_bool (O.Comm_model.name m) true
              (O.Comm_model.equal m (O.Comm_model.of_name (O.Comm_model.name m))))
          O.Comm_model.all);
    Alcotest.test_case "port restriction flags" `Quick (fun () ->
        check_bool "macro" false (O.Comm_model.restricts_ports O.Comm_model.macro_dataflow);
        check_bool "one-port" true (O.Comm_model.restricts_ports O.Comm_model.one_port);
        check_bool "unknown name" true
          (try
             ignore (O.Comm_model.of_name "bogus");
             false
           with Invalid_argument _ -> true));
  ]

let suite =
  paper_tests @ validation_tests @ routing_tests @ averaging_tests @ model_tests
