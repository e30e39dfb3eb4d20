(* Schedule builder, resource state, metrics, Gantt, and — crucially — the
   independent validator: every violation class must be detected. *)

module O = Onesched
open Util

let chain_graph () =
  O.Graph.create ~name:"chain" ~weights:[| 1.; 2. |] ~edges:[ (0, 1, 3.) ] ()

let plat2 () = O.Platform.homogeneous ~p:2 ~link_cost:1.

let make_sched ?(model = O.Comm_model.one_port) g =
  O.Schedule.create ~graph:g ~platform:(plat2 ()) ~model ()

let builder_tests =
  [
    Alcotest.test_case "placement bookkeeping" `Quick (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        check_bool "not placed" false (O.Schedule.is_placed s 0);
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        check_bool "placed" true (O.Schedule.is_placed s 0);
        let p = O.Schedule.placement_exn s 0 in
        check_float "finish = start + w*t" 1. p.O.Schedule.finish;
        check_int "n_placed" 1 (O.Schedule.n_placed s);
        check_bool "all placed" false (O.Schedule.all_placed s));
    Alcotest.test_case "double placement rejected" `Quick (fun () ->
        let s = make_sched (chain_graph ()) in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        Alcotest.check_raises "double"
          (Invalid_argument "Schedule.place_task: already placed") (fun () ->
            O.Schedule.place_task s ~task:0 ~proc:1 ~start:5.));
    Alcotest.test_case "comm recording and availability" `Quick (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let arrival = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        check_float "arrival = start + data*link" 4. arrival;
        check_float "edge availability" 4. (O.Schedule.edge_available_at s ~edge:0);
        check_int "events" 1 (O.Schedule.n_comm_events s);
        check_float "comm time" 3. (O.Schedule.total_comm_time s);
        O.Schedule.place_task s ~task:1 ~proc:1 ~start:4.;
        check_float "makespan" 6. (O.Schedule.makespan s));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let c = O.Schedule.copy s in
        O.Schedule.place_task c ~task:1 ~proc:0 ~start:1.;
        check_int "copy advanced" 2 (O.Schedule.n_placed c);
        check_int "original untouched" 1 (O.Schedule.n_placed s));
    Alcotest.test_case "makespan demands completeness" `Quick (fun () ->
        let s = make_sched (chain_graph ()) in
        Alcotest.check_raises "incomplete"
          (Invalid_argument "Schedule.makespan: unplaced tasks") (fun () ->
            ignore (O.Schedule.makespan s)));
  ]

(* Build a correct two-processor schedule for the chain, then break it in
   every way the validator must catch. *)
let valid_chain () =
  let g = chain_graph () in
  let s = make_sched g in
  O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
  let arrival = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
  O.Schedule.place_task s ~task:1 ~proc:1 ~start:arrival;
  s

let expect_violation name build =
  Alcotest.test_case name `Quick (fun () ->
      let s = build () in
      match O.Validate.check s with
      | Ok () -> Alcotest.fail "validator accepted a broken schedule"
      | Error _ -> ())

let validator_tests =
  [
    Alcotest.test_case "accepts a correct schedule" `Quick (fun () ->
        match O.Validate.check (valid_chain ()) with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
    expect_violation "catches unplaced tasks" (fun () ->
        let s = make_sched (chain_graph ()) in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        s);
    expect_violation "catches precedence violation (local)" (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        (* disjoint slots, but the successor runs first *)
        O.Schedule.place_task s ~task:1 ~proc:0 ~start:0.;
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:3.;
        s);
    expect_violation "catches missing communication" (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        O.Schedule.place_task s ~task:1 ~proc:1 ~start:1.;
        s);
    expect_violation "catches start before arrival" (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let _ = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        O.Schedule.place_task s ~task:1 ~proc:1 ~start:2.;
        s);
    expect_violation "catches comm before data ready" (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        (* task 0 finishes at 1 but the message leaves at 0.5 *)
        let a = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:0.5 in
        O.Schedule.place_task s ~task:1 ~proc:1 ~start:a;
        s);
  ]

(* Port conflicts cannot reach the validator through the public API: the
   builder itself rejects them when committing to the port timelines.
   These tests pin down that enforcement for each discipline. *)
let fork2 () =
  O.Graph.create ~name:"fork2" ~weights:[| 1.; 1.; 1. |]
    ~edges:[ (0, 1, 4.); (0, 2, 4.) ]
    ()

let chain3 () =
  O.Graph.create ~name:"chain3" ~weights:[| 1.; 1.; 1. |]
    ~edges:[ (0, 1, 4.); (1, 2, 4.) ]
    ()

let port_tests =
  [
    Alcotest.test_case "one-port rejects overlapping sends" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          O.Schedule.create ~graph:(fork2 ()) ~platform:plat
            ~model:O.Comm_model.one_port ()
        in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let _ = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        check_bool "second simultaneous send rejected" true
          (try
             ignore (O.Schedule.add_comm s ~edge:1 ~src_proc:0 ~dst_proc:2 ~start:2.);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "macro-dataflow allows overlapping sends" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          O.Schedule.create ~graph:(fork2 ()) ~platform:plat
            ~model:O.Comm_model.macro_dataflow ()
        in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let _ = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        let _ = O.Schedule.add_comm s ~edge:1 ~src_proc:0 ~dst_proc:2 ~start:1. in
        check_int "both committed" 2 (O.Schedule.n_comm_events s));
    Alcotest.test_case "bidirectional allows send during receive" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          O.Schedule.create ~graph:(chain3 ()) ~platform:plat
            ~model:O.Comm_model.one_port ()
        in
        (* P1 receives e0 during [1,5) and sends e1 during [2,6):
           legal under the bi-directional discipline. *)
        let _ = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        let _ = O.Schedule.add_comm s ~edge:1 ~src_proc:1 ~dst_proc:2 ~start:2. in
        check_int "both committed" 2 (O.Schedule.n_comm_events s));
    Alcotest.test_case "unidirectional pools send and receive" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          O.Schedule.create ~graph:(chain3 ()) ~platform:plat
            ~model:O.Comm_model.one_port_unidirectional ()
        in
        let _ = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        check_bool "send during receive rejected" true
          (try
             ignore (O.Schedule.add_comm s ~edge:1 ~src_proc:1 ~dst_proc:2 ~start:2.);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "no-overlap couples comm and compute" `Quick (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          O.Schedule.create ~graph:(fork2 ()) ~platform:plat
            ~model:(O.Comm_model.no_overlap O.Comm_model.one_port) ()
        in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        check_bool "comm during execution rejected" true
          (try
             ignore (O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:0.5);
             false
           with Invalid_argument _ -> true));
  ]

let metrics_tests =
  [
    Alcotest.test_case "metrics of the chain schedule" `Quick (fun () ->
        let s = valid_chain () in
        let m = O.Metrics.compute s in
        check_float "makespan" 6. m.O.Metrics.makespan;
        check_float "sequential" 3. m.O.Metrics.sequential_time;
        check_float "speedup" 0.5 m.O.Metrics.speedup;
        check_int "comms" 1 m.O.Metrics.n_comm_events;
        check_float "busy" 3. m.O.Metrics.total_busy_time);
    Alcotest.test_case "gantt and listing mention every task" `Quick (fun () ->
        let s = valid_chain () in
        let gantt = O.Gantt.render s in
        let listing = O.Gantt.listing s in
        check_bool "gantt rows" true (contains gantt "P0" && contains gantt "P1");
        check_bool "listing execs" true
          (contains listing "exec v0" && contains listing "exec v1");
        check_bool "listing comm" true (contains listing "comm e0"));
  ]

(* In-place retraction — the schedule half of the engine's rewind. *)
let retract_tests =
  [
    Alcotest.test_case "retraction undoes placements and comms" `Quick
      (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let a = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        O.Schedule.place_task s ~task:1 ~proc:1 ~start:a;
        check_int "two placed" 2 (O.Schedule.n_placed s);
        (* undo in reverse order: the placement, then its comm *)
        O.Schedule.unplace_task s 1;
        O.Schedule.truncate_comms s ~down_to:0;
        check_int "one placed" 1 (O.Schedule.n_placed s);
        check_int "comm gone" 0 (O.Schedule.n_comm_events s);
        check_bool "task 1 unplaced" false (O.Schedule.is_placed s 1);
        (* the undone work can be redone — ports and procs are free again *)
        let a = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        O.Schedule.place_task s ~task:1 ~proc:1 ~start:a;
        match O.Validate.check s with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
    Alcotest.test_case "unplace_task frees the compute slot" `Quick (fun () ->
        let g = chain_graph () in
        let s = make_sched g in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        O.Schedule.unplace_task s 0;
        check_bool "unplaced" false (O.Schedule.is_placed s 0);
        check_int "none placed" 0 (O.Schedule.n_placed s);
        (* the slot is genuinely free: the same placement goes back in *)
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.);
    Alcotest.test_case "unplace_task rejects unplaced tasks" `Quick (fun () ->
        let s = make_sched (chain_graph ()) in
        Alcotest.check_raises "not placed"
          (Invalid_argument "Schedule.unplace_task: not placed")
          (fun () -> O.Schedule.unplace_task s 0));
    Alcotest.test_case "truncate_comms retracts port reservations" `Quick
      (fun () ->
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          O.Schedule.create ~graph:(fork2 ()) ~platform:plat
            ~model:O.Comm_model.one_port ()
        in
        O.Schedule.place_task s ~task:0 ~proc:0 ~start:0.;
        let _ = O.Schedule.add_comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
        (* the send port is busy: an overlapping second send is illegal *)
        check_bool "port busy" true
          (try
             ignore
               (O.Schedule.add_comm s ~edge:1 ~src_proc:0 ~dst_proc:2 ~start:2.);
             false
           with Invalid_argument _ -> true);
        O.Schedule.truncate_comms s ~down_to:0;
        check_int "comm gone" 0 (O.Schedule.n_comm_events s);
        (* ... and the port is free again *)
        let _ = O.Schedule.add_comm s ~edge:1 ~src_proc:0 ~dst_proc:2 ~start:2. in
        check_int "second send accepted" 1 (O.Schedule.n_comm_events s));
  ]

(* ---------------- the flat comm store against a list model -------- *)

(* One step of the model run.  Under macro-dataflow no event occupies a
   port, so any sequence of adds is legal and the store alone is under
   test. *)
type store_op =
  | Add of int * int * int * int * bool option
      (** edge, src, dst, start, explicit head *)
  | Add_window of int * int * int * int * int
      (** edge, src, dst, start, duration *)
  | Truncate of int  (** keep this share, in 1/8ths *)
  | Filter of int  (** keep bit mask over indices mod 16 *)
  | Copy

let store_op_gen =
  QCheck2.Gen.(
    let proc_pair =
      let* src = int_bound 2 in
      let* d = int_range 1 2 in
      return (src, (src + d) mod 3)
    in
    frequency
      [
        ( 6,
          let* e = int_bound 3 and* src, dst = proc_pair in
          let* start = int_bound 50 in
          let* head = opt bool in
          return (Add (e, src, dst, start, head)) );
        ( 2,
          let* e = int_bound 3 and* src, dst = proc_pair in
          let* start = int_bound 50 and* dur = int_bound 5 in
          return (Add_window (e, src, dst, start, dur)) );
        (1, map (fun k -> Truncate k) (int_bound 8));
        (1, map (fun m -> Filter m) (int_bound 0xffff));
        (1, return Copy);
      ])

let print_store_op = function
  | Add (e, a, b, st, h) ->
      Printf.sprintf "Add(e%d %d->%d @%d %s)" e a b st
        (match h with None -> "-" | Some h -> string_of_bool h)
  | Add_window (e, a, b, st, d) ->
      Printf.sprintf "Window(e%d %d->%d @%d +%d)" e a b st d
  | Truncate k -> Printf.sprintf "Truncate(%d/8)" k
  | Filter m -> Printf.sprintf "Filter(%x)" m
  | Copy -> "Copy"

(* Every view of the store — index accessors, records, per-edge lists,
   chain heads, edge availability — equals the model (events with their
   head flags, in commit order). *)
let store_agrees s (model : (O.Schedule.comm * bool) list) =
  let arr = Array.of_list model in
  let n = Array.length arr in
  O.Schedule.n_comm_events s = n
  && O.Schedule.comms s = List.map fst model
  && Array.for_all Fun.id
       (Array.mapi
          (fun i ((c : O.Schedule.comm), head) ->
            O.Schedule.comm_at s i = c
            && O.Schedule.comm_head_at s i = head
            && O.Schedule.comm_edge s i = c.edge
            && O.Schedule.comm_src s i = c.src_proc
            && O.Schedule.comm_dst s i = c.dst_proc
            && O.Schedule.comm_start s i = c.start
            && O.Schedule.comm_finish s i = c.finish)
          arr)
  && List.for_all
       (fun e ->
         let of_e =
           List.filter (fun ((c : O.Schedule.comm), _) -> c.edge = e) model
         in
         O.Schedule.comms_of_edge s e = List.map fst of_e
         &&
         match List.rev of_e with
         | [] -> true
         | (last, _) :: _ ->
             O.Schedule.edge_available_at s ~edge:e = last.finish)
       [ 0; 1; 2; 3 ]

let store_model_tests =
  [
    qtest ~count:300
      ~print:(fun ops -> String.concat "; " (List.map print_store_op ops))
      "flat comm store matches a list model"
      QCheck2.Gen.(list_size (int_range 1 40) store_op_gen)
      (fun ops ->
        let g =
          O.Graph.create ~name:"store" ~weights:[| 1.; 1.; 1.; 1. |]
            ~edges:[ (0, 1, 2.); (0, 2, 3.); (1, 3, 1.); (2, 3, 4.) ]
            ()
        in
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        let s =
          ref
            (O.Schedule.create ~graph:g ~platform:plat
               ~model:O.Comm_model.macro_dataflow ())
        in
        let model = ref [] in
        let push e src dst start finish head =
          let head =
            match head with
            | Some h -> h
            | None -> (
                match
                  List.rev
                    (List.filter
                       (fun ((c : O.Schedule.comm), _) -> c.edge = e)
                       !model)
                with
                | [] -> true
                | (c, _) :: _ -> c.dst_proc <> src)
          in
          model :=
            !model
            @ [ ({ O.Schedule.edge = e; src_proc = src; dst_proc = dst; start;
                   finish }, head) ]
        in
        let truncate k = model := List.filteri (fun i _ -> i < k) !model in
        List.for_all
          (fun op ->
            (match op with
            | Add (e, src, dst, st, head) ->
                let start = float_of_int st in
                let finish =
                  match head with
                  | None ->
                      O.Schedule.add_comm !s ~edge:e ~src_proc:src
                        ~dst_proc:dst ~start
                  | Some head ->
                      O.Schedule.add_comm ~head !s ~edge:e ~src_proc:src
                        ~dst_proc:dst ~start
                in
                push e src dst start
                  (start +. O.Graph.edge_data g e)
                  head;
                ignore (finish : float)
            | Add_window (e, src, dst, st, d) ->
                let start = float_of_int st in
                let finish = start +. float_of_int d in
                ignore
                  (O.Schedule.add_comm_in_window !s ~edge:e ~src_proc:src
                     ~dst_proc:dst ~start ~finish
                    : float);
                push e src dst start finish None
            | Truncate k ->
                let down_to = List.length !model * k / 8 in
                O.Schedule.truncate_comms !s ~down_to;
                truncate down_to
            | Filter m ->
                let keep i = m land (1 lsl (i mod 16)) <> 0 in
                O.Schedule.filter_commsi !s ~keep:(fun i _ -> keep i);
                model := List.filteri (fun i _ -> keep i) !model
            | Copy ->
                let c = O.Schedule.copy !s in
                let before = !model in
                ignore
                  (O.Schedule.add_comm !s ~edge:0 ~src_proc:0 ~dst_proc:1
                     ~start:0.
                    : float);
                if not (store_agrees c before) then
                  Alcotest.fail "a copy saw its original's commit";
                s := c);
            store_agrees !s !model)
          ops);
  ]

let suite =
  builder_tests @ validator_tests @ port_tests @ metrics_tests
  @ retract_tests @ store_model_tests
