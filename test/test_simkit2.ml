(* Executor and I/O round-trips: the discrete-event executor must agree
   with the PERT longest-path view on every model; the text formats must
   invert. *)

module O = Onesched
open Onesched_oracle
open Util

let executor_tests =
  [
    qtest ~count:80 "executor agrees with PERT compaction"
      QCheck2.Gen.(tup4 graph_gen platform_gen model_gen bool)
      (fun (params, plat, model, dup) ->
        let g = build_graph params in
        let sched = heft_or_dup ~dup (O.Params.of_model model) plat g in
        let pert = O.Pert.build sched in
        let trace = O.Executor.run sched in
        Prelude.Stats.fequal trace.O.Executor.makespan
          (O.Pert.compacted_makespan pert));
    qtest ~count:40 "executor fires every event exactly once"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let sched = O.Ilha.schedule plat g in
        let trace = O.Executor.run sched in
        trace.O.Executor.events_fired
        = O.Graph.n_tasks g + O.Schedule.n_comm_events sched);
    (* The simulators keep only the decisions; on the port rungs, where
       every event occupies its whole span, replaying them must land on
       the builder's own makespan.  BSP and LogP compact below it by
       design, so they sit this case out. *)
    Alcotest.test_case "PERT and executor reproduce the builder's makespan"
      `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        let instances =
          ("fork-join", 40, 1.)
          :: List.map
               (fun (tb : O.Suite.t) ->
                 (tb.O.Suite.name, max 20 tb.O.Suite.min_n, 10.))
               O.Suite.all
        in
        List.iter
          (fun model ->
            let params = O.Params.with_dup_limit (O.Params.of_model model) 1 in
            if model.O.Comm_model.regime = O.Comm_model.Port then
              List.iter
                (fun (tb, n, ccr) ->
                  let g = (O.Suite.find tb).O.Suite.build ~n ~ccr in
                  List.iter
                    (fun h ->
                      let sched =
                        (O.Registry.find h).O.Registry.scheduler params plat g
                      in
                      let ms = O.Schedule.makespan sched in
                      let ctx =
                        Printf.sprintf "%s/%s n=%d ccr=%g/%s" h tb n ccr
                          (O.Comm_model.name model)
                      in
                      check_bool (ctx ^ ": PERT") true
                        (Prelude.Stats.fequal ms
                           (O.Pert.compacted_makespan (O.Pert.build sched)));
                      check_bool (ctx ^ ": executor") true
                        (Prelude.Stats.fequal ms
                           (O.Executor.run sched).O.Executor.makespan))
                    [ "heft"; "ilha"; "heft-dup" ])
                instances)
          O.Comm_model.all);
    Alcotest.test_case "executor start times respect dependencies" `Quick
      (fun () ->
        let g =
          O.Graph.create ~weights:[| 1.; 2. |] ~edges:[ (0, 1, 3.) ] ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let trace = O.Executor.run sched in
        check_float "chain start" 0. trace.O.Executor.task_starts.(0);
        check_bool "successor waits" true
          (trace.O.Executor.task_starts.(1) >= 1.));
  ]

(* Graph text for the one-pass reader: valid graphs with a few lines
   replaced, inserted or dropped, drawn from tokens that hit every branch
   of the grammar — comments, tabs, '\r', extra or missing fields, ids
   out of range, duplicates, numbers only the runtime's parsers accept. *)
let graph_text_gen =
  QCheck2.Gen.(
    let num =
      oneof
        [
          map string_of_int (int_range (-2) 12);
          oneofl
            [ "0"; "007"; "2.5"; "-0"; "1e3"; "0x1p3"; "0x2"; "+1"; "1_0";
              "nan"; "inf"; "-1"; "oops"; "3\r"; "1000000000";
              "99999999999999999999"; "123456789012345678";
              "1234567890123456"; "" ];
        ]
    in
    let sep = oneofl [ " "; "\t"; "  "; " \t " ] in
    let fields words =
      let* seps = list_repeat (List.length words) sep in
      let* lead = oneofl [ ""; ""; " "; "\t" ] in
      let* tail = oneofl [ ""; ""; " "; " # note"; "#x"; "\r" ] in
      return
        (lead
        ^ String.concat "" (List.map2 (fun s w -> w ^ s) seps words)
        ^ tail)
    in
    let line =
      oneof
        [
          (let* id = num and* w = num in fields [ "task"; id; w ]);
          (let* a = num and* b = num and* d = num in
           fields [ "edge"; a; b; d ]);
          (let* n = oneofl [ "g"; "my-app"; "x#y" ] in fields [ "graph"; n ]);
          (let* ws =
             list_size (int_range 1 5)
               (oneof [ num; oneofl [ "task"; "edge"; "graph"; "node"; "Task" ] ])
           in
           fields ws);
          oneofl [ ""; "# comment"; "\r"; "\t"; "#" ];
        ]
    in
    let* base = map build_graph graph_gen in
    let* edits =
      list_size (int_range 0 3) (triple (int_bound 2) (int_bound 1000) line)
    in
    let lines =
      List.fold_left
        (fun ls (op, at, l) ->
          let k = List.length ls in
          let at = if k = 0 then 0 else at mod k in
          match op with
          | 0 -> List.mapi (fun i x -> if i = at then l else x) ls
          | 1 -> List.filteri (fun i _ -> i <> at) ls
          | _ ->
              List.concat
                (List.mapi (fun i x -> if i = at then [ l; x ] else [ x ]) ls))
        (String.split_on_char '\n' (O.Graph_io.to_string base))
        edits
    in
    return (String.concat "\n" lines))

let parse_outcome of_string text =
  match of_string text with
  | g ->
      let bits = Int64.bits_of_float in
      Ok
        ( O.Graph.name g,
          List.init (O.Graph.n_tasks g) (fun v -> bits (O.Graph.weight g v)),
          List.map
            (fun (e : O.Graph.edge) -> (e.src, e.dst, bits e.data))
            (O.Graph.edges g) )
  | exception Invalid_argument msg -> Error msg

let graph_io_tests =
  [
    qtest ~count:2000 ~print:(Printf.sprintf "%S")
      "one-pass reader = list-based reference, graphs and errors"
      graph_text_gen (fun text ->
        parse_outcome O.Graph_io.of_string text
        = parse_outcome Io_ref.of_string text);
    qtest ~count:100 "graph text format round-trips" graph_gen (fun params ->
        let g = build_graph params in
        let g' = O.Graph_io.of_string (O.Graph_io.to_string g) in
        O.Graph.n_tasks g' = O.Graph.n_tasks g
        && O.Graph.n_edges g' = O.Graph.n_edges g
        && List.for_all
             (fun v -> O.Graph.weight g' v = O.Graph.weight g v)
             (List.init (O.Graph.n_tasks g) Fun.id)
        && List.for_all2
             (fun (a : O.Graph.edge) (b : O.Graph.edge) ->
               a.src = b.src && a.dst = b.dst && a.data = b.data)
             (O.Graph.edges g) (O.Graph.edges g'));
    Alcotest.test_case "parses the documented example" `Quick (fun () ->
        let g =
          O.Graph_io.of_string
            "# my application\ngraph my-app\ntask 0 2.5\ntask 1 4\nedge 0 1 10\n"
        in
        Alcotest.(check string) "name" "my-app" (O.Graph.name g);
        check_float "weight" 2.5 (O.Graph.weight g 0);
        check_int "edges" 1 (O.Graph.n_edges g));
    Alcotest.test_case "rejects malformed input with line numbers" `Quick
      (fun () ->
        let expect_fail text fragment =
          match O.Graph_io.of_string text with
          | exception Invalid_argument msg ->
              check_bool
                (Printf.sprintf "%S mentions %S" msg fragment)
                true (contains msg fragment)
          | _ -> Alcotest.fail "accepted malformed input"
        in
        expect_fail "task 0 oops\n" "line 1";
        expect_fail "task 0 1\ntask 0 2\n" "duplicate";
        expect_fail "bogus stuff\n" "unknown directive";
        expect_fail "task 1 1\n" "missing task 0");
    Alcotest.test_case "file save/load round-trip" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:4 ~ccr:2. in
        let path = Filename.temp_file "onesched" ".tg" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            O.Graph_io.save g path;
            let g' = O.Graph_io.load path in
            check_int "tasks" (O.Graph.n_tasks g) (O.Graph.n_tasks g')));
  ]

let platform_io_tests =
  [
    Alcotest.test_case "parses the three interconnect forms" `Quick (fun () ->
        let full =
          O.Platform.of_description "cycle-times 1 2 3\nlink-cost 2\n"
        in
        check_float "uniform" 2. (O.Platform.link full ~src:0 ~dst:2);
        let topo =
          O.Platform.of_description
            "cycle-times 1 1 1\nlink 0 1 1\nlink 1 2 1\n"
        in
        check_float "routed" 2. (O.Platform.link topo ~src:0 ~dst:2);
        let matrix =
          O.Platform.of_description
            "cycle-times 1 1\nrow 0 5\nrow 3 0\n"
        in
        check_float "asymmetric" 5. (O.Platform.link matrix ~src:0 ~dst:1);
        check_float "asymmetric back" 3. (O.Platform.link matrix ~src:1 ~dst:0));
    Alcotest.test_case "description round-trips pairwise costs" `Quick
      (fun () ->
        List.iter
          (fun plat ->
            let plat' = O.Platform.of_description (O.Platform.to_description plat) in
            check_int "p" (O.Platform.p plat) (O.Platform.p plat');
            for q = 0 to O.Platform.p plat - 1 do
              check_float "cycle" (O.Platform.cycle_time plat q)
                (O.Platform.cycle_time plat' q);
              for r = 0 to O.Platform.p plat - 1 do
                check_float "cost"
                  (O.Platform.link plat ~src:q ~dst:r)
                  (O.Platform.link plat' ~src:q ~dst:r)
              done
            done)
          [
            O.Platform.paper_platform ();
            O.Platform.star ~cycle_times:[| 1.; 2.; 3. |] ~spoke_cost:2. ();
            O.Platform.ring ~cycle_times:(Array.make 4 1.) ~link_cost:3. ();
          ]);
    Alcotest.test_case "rejects inconsistent descriptions" `Quick (fun () ->
        let expect_fail text =
          match O.Platform.of_description text with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "accepted malformed description"
        in
        expect_fail "link-cost 1\n";
        expect_fail "cycle-times 1 1\n";
        expect_fail "cycle-times 1 1\nlink-cost 1\nlink 0 1 1\n";
        expect_fail "cycle-times 1 1\nwhatever\n");
  ]

let suite = executor_tests @ graph_io_tests @ platform_io_tests
