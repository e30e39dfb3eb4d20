(* SVG rendering, plot rendering, and the extension kernel. *)

module O = Onesched
open Util

let svg_tests =
  [
    Alcotest.test_case "svg is well-formed and complete" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:4 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        List.iter
          (fun sched ->
            let g = O.Schedule.graph sched in
            let svg = O.Svg.render sched in
            check_bool "opens" true (contains svg "<svg");
            check_bool "closes" true (contains svg "</svg>");
            (* every copy of every task has its own titled box *)
            let copies = ref 0 in
            for v = 0 to O.Graph.n_tasks g - 1 do
              List.iteri
                (fun i (c : O.Schedule.placement) ->
                  incr copies;
                  check_bool
                    (Printf.sprintf "v%d on P%d drawn" v c.O.Schedule.proc)
                    true
                    (contains svg
                       (Printf.sprintf "<title>v%d%s on P%d:" v
                          (if i = 0 then "" else "'") c.O.Schedule.proc)))
                (O.Schedule.copies sched v)
            done;
            let titles = ref 0 in
            for i = 0 to String.length svg - 8 do
              if String.sub svg i 8 = "<title>v" then incr titles
            done;
            check_int "one task title per copy" !copies !titles;
            (* every comm appears with its endpoints *)
            List.iter
              (fun (c : O.Schedule.comm) ->
                check_bool "comm drawn" true
                  (contains svg (Printf.sprintf "e%d: P%d -&gt; P%d" c.O.Schedule.edge
                                   c.O.Schedule.src_proc c.O.Schedule.dst_proc)
                  || contains svg (Printf.sprintf "e%d" c.O.Schedule.edge)))
              (O.Schedule.comms sched);
            check_bool "processor lanes" true (contains svg ">P0<"))
          [ O.Heft.schedule plat g; dup_fork_join () ]);
    Alcotest.test_case "macro-dataflow hides port lanes" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:3 ~ccr:2. in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule ~params:(O.Params.of_model O.Comm_model.macro_dataflow) plat g in
        let default = O.Svg.render sched in
        let forced = O.Svg.render ~show_ports:true sched in
        check_bool "smaller without ports" true
          (String.length default < String.length forced));
    Alcotest.test_case "escapes xml metacharacters" `Quick (fun () ->
        let g =
          O.Graph.create ~name:"a<b&c" ~weights:[| 1. |] ~edges:[] ()
        in
        let plat = O.Platform.homogeneous ~p:1 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let svg = O.Svg.render sched in
        check_bool "escaped" true (contains svg "a&lt;b&amp;c"));
  ]

let plot_tests =
  [
    Alcotest.test_case "plot places markers for every series" `Quick (fun () ->
        let out =
          O.Plot.render ~x_label:"n" ~y_label:"speedup"
            [
              ("Heft", [ (100., 4.5); (200., 5.0) ]);
              ("Ilha", [ (100., 5.0); (200., 5.5) ]);
            ]
        in
        check_bool "H marker" true (contains out "H");
        check_bool "I marker" true (contains out "I");
        check_bool "legend" true (contains out "H=Heft"));
    Alcotest.test_case "overlapping points print a star" `Quick (fun () ->
        let out =
          O.Plot.render ~x_label:"x" ~y_label:"y"
            [ ("a", [ (1., 1.) ]); ("b", [ (1., 1.) ]) ]
        in
        check_bool "star" true (contains out "*"));
    Alcotest.test_case "empty input rejected" `Quick (fun () ->
        check_bool "raises" true
          (try
             ignore (O.Plot.render ~x_label:"x" ~y_label:"y" [ ("a", []) ]);
             false
           with Invalid_argument _ -> true));
  ]

let cholesky_tests =
  [
    Alcotest.test_case "cholesky shape and weights" `Quick (fun () ->
        let n = 8 in
        let g = O.Kernels.cholesky ~n ~ccr:1. in
        check_int "triangle size" (n * (n - 1) / 2) (O.Graph.n_tasks g);
        O.Graph.check_invariants g;
        (* first task (1,2) has weight 1; the far corner (1,n) has n-1 *)
        check_float "near diagonal" 1. (O.Graph.weight g 0);
        check_float "far corner" (float_of_int (n - 1)) (O.Graph.weight g (n - 2)));
    qtest ~count:20 "cholesky schedules validate"
      QCheck2.Gen.(int_range 3 12)
      (fun n ->
        let g = O.Kernels.cholesky ~n ~ccr:10. in
        let plat = O.Platform.paper_platform () in
        let sched = O.Ilha.schedule plat g in
        O.Validate.is_valid sched);
  ]

let suite = svg_tests @ plot_tests @ cholesky_tests
