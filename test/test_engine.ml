(* The shared EFT engine: slot choices, tie-breaking, tentative evaluation
   purity, policies, and routed communications. *)

module O = Onesched
open Onesched_oracle
open Util

let chain_graph () =
  O.Graph.create ~name:"chain" ~weights:[| 1.; 2. |] ~edges:[ (0, 1, 3.) ] ()

let engine_for ?(model = O.Comm_model.one_port) ?policy ?(p = 2) g =
  let plat = O.Platform.homogeneous ~p ~link_cost:1. in
  let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
  O.Engine.create ?policy sched

(* What placing [task] on [proc] commits, read back from the schedule
   and then rewound: the start, the finish and the communication events
   the placement added, in commit order. *)
let placed_on engine ~task ~proc =
  let s = O.Engine.schedule engine in
  let k = O.Engine.n_commits engine and c0 = O.Schedule.n_comm_events s in
  O.Engine.schedule_on engine ~task ~proc;
  let hops =
    List.init (O.Schedule.n_comm_events s - c0) (fun i ->
        O.Schedule.comm_at s (c0 + i))
  in
  let placed =
    (O.Schedule.start_of_exn s task, O.Schedule.finish_of_exn s task, hops)
  in
  O.Engine.rewind engine ~to_:k;
  placed

let basic_tests =
  [
    Alcotest.test_case "local placement has no comms" `Quick (fun () ->
        let engine = engine_for (chain_graph ()) in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        let est, eft, hops = placed_on engine ~task:1 ~proc:0 in
        check_float "est" 1. est;
        check_float "eft" 3. eft;
        check_bool "no hops" true (hops = []));
    Alcotest.test_case "remote placement schedules the message" `Quick (fun () ->
        let engine = engine_for (chain_graph ()) in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        let est, _, hops = placed_on engine ~task:1 ~proc:1 in
        check_float "est = finish + comm" 4. est;
        check_int "one hop" 1 (List.length hops);
        let hop = List.hd hops in
        check_float "hop starts when data ready" 1. hop.O.Schedule.start);
    Alcotest.test_case "evaluation does not mutate state" `Quick (fun () ->
        let engine = engine_for (chain_graph ()) in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.price engine ~task:1 ~proc:1;
        let est1 = O.Engine.priced_est engine in
        O.Engine.price engine ~task:1 ~proc:1;
        check_float "same est twice" est1 (O.Engine.priced_est engine);
        check_int "no comm committed" 0
          (O.Schedule.n_comm_events (O.Engine.schedule engine)));
    Alcotest.test_case "schedule_best prefers local, ties to lowest index"
      `Quick (fun () ->
        let engine = engine_for (chain_graph ()) in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        check_int "local wins (eft 3 vs 6)" 0
          (O.Engine.schedule_best engine ~task:1);
        (* On a fresh engine, every processor gives the same EFT for the
           entry task: the tie must go to processor 0. *)
        let engine2 = engine_for ~p:4 (chain_graph ()) in
        check_int "tie to lowest" 0 (O.Engine.schedule_best engine2 ~task:0));
    Alcotest.test_case "schedule_best_among respects the candidate list"
      `Quick (fun () ->
        let engine = engine_for ~p:4 (chain_graph ()) in
        check_int "restricted" 2
          (O.Engine.schedule_best_among engine ~task:0 [ 2; 3 ]));
  ]

(* Two tasks feeding one sink from different processors: the sink's
   incoming messages must serialise on its receive port under one-port but
   not under macro-dataflow. *)
let join_graph () =
  O.Graph.create ~name:"join" ~weights:[| 1.; 1.; 1. |]
    ~edges:[ (0, 2, 2.); (1, 2, 2.) ]
    ()

let serialization_tests =
  [
    Alcotest.test_case "incoming messages serialise at the receiver" `Quick
      (fun () ->
        let engine = engine_for ~p:3 (join_graph ()) in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.schedule_on engine ~task:1 ~proc:1;
        O.Engine.price engine ~task:2 ~proc:2;
        (* both messages ready at t=1, each lasting 2: arrivals 3 and 5 *)
        check_float "est after both arrivals" 5. (O.Engine.priced_est engine));
    Alcotest.test_case "macro-dataflow lets them overlap" `Quick (fun () ->
        let engine =
          engine_for ~model:O.Comm_model.macro_dataflow ~p:3 (join_graph ())
        in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.schedule_on engine ~task:1 ~proc:1;
        O.Engine.price engine ~task:2 ~proc:2;
        check_float "est after parallel arrivals" 3.
          (O.Engine.priced_est engine));
    Alcotest.test_case "append policy never uses gaps" `Quick (fun () ->
        (* Occupy [0,1) and [5,6) on P0's compute; a 2-long task fits in
           the gap under Insertion but must go after 6 under Append. *)
        let g =
          O.Graph.create ~name:"three"
            ~weights:[| 1.; 1.; 2. |]
            ~edges:[]
            ()
        in
        let probe policy =
          let engine = engine_for ~policy ~p:1 g in
          let sched = O.Engine.schedule engine in
          O.Schedule.place_task sched ~task:0 ~proc:0 ~start:0.;
          O.Schedule.place_task sched ~task:1 ~proc:0 ~start:5.;
          O.Engine.price engine ~task:2 ~proc:0;
          O.Engine.priced_est engine
        in
        check_float "insertion fills the gap" 1. (probe O.Engine.Insertion);
        check_float "append goes last" 6. (probe O.Engine.Append));
  ]

let routing_tests =
  [
    Alcotest.test_case "messages are routed hop by hop" `Quick (fun () ->
        let plat =
          O.Platform.with_topology ~cycle_times:[| 1.; 1.; 1. |]
            ~links:[ (0, 1, 1.); (1, 2, 1.) ]
            ()
        in
        let g = chain_graph () in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model:O.Comm_model.one_port () in
        let engine = O.Engine.create sched in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.schedule_on engine ~task:1 ~proc:2;
        check_int "two hops" 2 (O.Schedule.n_comm_events sched);
        (* data volume 3, unit hops: leave at 1, relay arrives 4, final 7 *)
        check_float "est after relay" 7. (O.Schedule.start_of_exn sched 1);
        O.Validate.check_exn sched);
  ]

(* A layered DAG of exactly [layers] x [width] tasks, each task past the
   first layer fed by [fan_in] distinct tasks of the layer above. *)
let layered_fan_in ~seed ~layers ~width ~fan_in =
  let rng = O.Rng.create ~seed in
  let weights =
    Array.init (layers * width) (fun _ -> float_of_int (1 + O.Rng.int rng 9))
  in
  let edges = ref [] in
  let perm = Array.init width Fun.id in
  for l = 1 to layers - 1 do
    for j = 0 to width - 1 do
      (* partial Fisher-Yates: the first [fan_in] slots of [perm] *)
      for k = 0 to fan_in - 1 do
        let r = k + O.Rng.int rng (width - k) in
        let x = perm.(k) in
        perm.(k) <- perm.(r);
        perm.(r) <- x;
        edges :=
          ( ((l - 1) * width) + perm.(k),
            (l * width) + j,
            float_of_int (1 + O.Rng.int rng 10) )
          :: !edges
      done
    done
  done;
  O.Graph.create ~name:"layered" ~weights ~edges:(List.rev !edges) ()

(* ------------------------------------------------------------------ *)
(* Optimized engine = Reference engine, bit for bit                    *)
(* ------------------------------------------------------------------ *)

(* Everything a schedule decided: makespan, every placement (proc and
   start), and every communication hop (edge, endpoints, start).  Both
   engines commit in the same deterministic order, so plain structural
   equality is the right comparison — any drift in a tie-break or a gap
   search shows up here. *)
let fingerprint sched =
  let g = O.Schedule.graph sched in
  let placements =
    List.init (O.Graph.n_tasks g) (fun t -> O.Schedule.placement_exn sched t)
  in
  (O.Schedule.makespan sched, placements, O.Schedule.comms sched)

let equivalence_tests =
  let models =
    [ ("one-port", O.Comm_model.one_port);
      ("macro-dataflow", O.Comm_model.macro_dataflow);
      ("bsp", O.Comm_model.bsp ~g:1. ~l:5.);
      ("logp", O.Comm_model.latency_overhead ~o:1. ~l:2.) ]
  in
  (* The registry runs ILHA without its reschedule step, so both scans
     with reschedule ride along: they exercise [Engine.schedule_pending]. *)
  let resched scan params =
    O.Ilha.schedule
      ~params:(O.Params.with_scan (O.Params.with_reschedule params true) scan)
  in
  let schedulers =
    List.map
      (fun (e : O.Registry.entry) -> (e.O.Registry.name, e.O.Registry.scheduler))
      O.Registry.all
    @ [
        ("ilha resched 0comm", resched O.Params.Scan_zero_comm);
        ("ilha resched 1comm", resched O.Params.Scan_one_comm);
      ]
  in
  List.concat_map
    (fun (mname, model) ->
      List.map
        (fun (tb : O.Suite.t) ->
          Alcotest.test_case
            (Printf.sprintf "optimized = reference: %s, %s" tb.O.Suite.name
               mname)
            `Quick
            (fun () ->
              let n = max 3 tb.O.Suite.min_n in
              let plat = O.Platform.paper_platform () in
              let params = O.Params.of_model model in
              List.iter
                (fun (name, scheduler) ->
                  let g = tb.O.Suite.build ~n ~ccr:0.5 in
                  let fast = scheduler params plat g in
                  let slow =
                    Engine_ref.with_reference (fun () -> scheduler params plat g)
                  in
                  check_bool
                    (Printf.sprintf "%s schedules agree" name)
                    true
                    (fingerprint fast = fingerprint slow))
                schedulers))
        O.Suite.all)
    models

(* A random instance as a description, a graph builder and a platform:
   either the shared pool, or a tie-prone draw — unit-speed processors,
   an integer link cost, weights in {1, 2} and data in {0, 1, 2} — where
   several processors often give a task the same EFT, so the scans'
   ties-to-the-lowest-index rule is exercised. *)
let instance_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun gspec plat ->
            (print_graph gspec, (fun () -> build_graph gspec), plat))
          graph_gen platform_gen;
        (let+ seed = int_bound 1_000_000
         and+ layers = int_range 1 5
         and+ p = int_range 2 6
         and+ link = int_range 1 2 in
         ( Printf.sprintf "ties(seed=%d,layers=%d,p=%d,link=%d)" seed layers p
             link,
           (fun () ->
             O.Generators.layered (O.Rng.create ~seed) ~layers ~width:4
               ~edge_prob:0.5 ~max_weight:2 ~max_data:2),
           O.Platform.homogeneous ~p ~link_cost:(float_of_int link) ));
      ])

let equivalence_property_tests =
  [
    qtest ~count:200 "optimized = reference on random instances"
      ~print:(fun ((what, _, _), model, hi) ->
        Printf.sprintf "%s model=%s heuristic=%d" what (O.Comm_model.name model)
          hi)
      QCheck2.Gen.(tup3 instance_gen model_gen (int_bound 7))
      (fun ((_, graph, plat), model, hi) ->
        let e = List.nth O.Registry.all hi in
        let params = O.Params.of_model model in
        let fast = e.O.Registry.scheduler params plat (graph ()) in
        let slow =
          Engine_ref.with_reference (fun () ->
              e.O.Registry.scheduler params plat (graph ()))
        in
        fingerprint fast = fingerprint slow);
    qtest ~count:150 "single evaluations agree mid-schedule"
      QCheck2.Gen.(tup3 graph_gen platform_gen model_gen)
      (fun (gspec, plat, model) ->
        (* Place a topological prefix of the tasks, then price the next
           task on every processor with both engines. *)
        let g = build_graph gspec in
        let n = O.Graph.n_tasks g in
        let order =
          (* Kahn's algorithm, lowest task id first. *)
          let remaining = Array.init n (O.Graph.in_degree g) in
          let acc = ref [] in
          let placed = Array.make n false in
          for _ = 1 to n do
            let v = ref (-1) in
            for u = n - 1 downto 0 do
              if (not placed.(u)) && remaining.(u) = 0 then v := u
            done;
            placed.(!v) <- true;
            acc := !v :: !acc;
            O.Graph.iter_succ_edges g !v ~f:(fun e ->
                let u = O.Graph.edge_dst g e in
                remaining.(u) <- remaining.(u) - 1)
          done;
          List.rev !acc
        in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
        let engine = O.Engine.create sched in
        let split = max 1 (n / 2) in
        List.iteri
          (fun i task ->
            if i < split then ignore (O.Engine.schedule_best engine ~task))
          order;
        let next = List.filteri (fun i _ -> i = split) order in
        List.for_all
          (fun task ->
            List.for_all
              (fun proc ->
                let est, eft, hops = placed_on engine ~task ~proc in
                let slow = Engine_ref.evaluate engine ~task ~proc in
                est = slow.est && eft = slow.eft && hops = slow.hops)
              (List.init (O.Platform.p plat) Fun.id))
          next);
  ]

(* ------------------------------------------------------------------ *)
(* Placements priced outside the engine                                *)
(* ------------------------------------------------------------------ *)

(* The commit log of a finished schedule, read back from it, as
   (task, proc, start, comms) entries, one per copy.  The schedule keeps
   its communication events in commit order, and the provenance chains
   one commit adds all feed the copy it places — the chain's task on its
   last hop's processor — so every copy with remote inputs owns one
   contiguous run of events.  The entries follow those runs; a copy is
   preceded by its task's earlier copies (the primary first), and copies
   without remote inputs come last.  That keeps the event order and each
   task's copy order, which is all a fingerprint sees. *)
let commit_log s =
  let g = O.Schedule.graph s in
  let m = O.Schedule.n_comm_events s in
  let runs = Hashtbl.create 16 and fed = ref [] in
  let i = ref 0 in
  while !i < m do
    let first = !i in
    incr i;
    while !i < m && not (O.Schedule.comm_head_at s !i) do
      incr i
    done;
    let v = O.Graph.edge_dst g (O.Schedule.comm_edge s first) in
    let key = (v, O.Schedule.comm_dst s (!i - 1)) in
    if not (Hashtbl.mem runs key) then fed := key :: !fed;
    for k = first to !i - 1 do
      Hashtbl.add runs key (O.Schedule.comm_at s k)
    done
  done;
  let emitted = Hashtbl.create 16 and log = ref [] in
  let emit v (c : O.Schedule.placement) =
    if not (Hashtbl.mem emitted (v, c.proc)) then begin
      Hashtbl.add emitted (v, c.proc) ();
      log :=
        (v, c.proc, c.start, List.rev (Hashtbl.find_all runs (v, c.proc)))
        :: !log
    end
  in
  List.iter
    (fun (v, q) ->
      let rec upto = function
        | [] -> ()
        | (c : O.Schedule.placement) :: rest ->
            emit v c;
            if c.proc <> q then upto rest
      in
      upto (O.Schedule.copies s v))
    (List.rev !fed);
  for v = 0 to O.Graph.n_tasks g - 1 do
    List.iter (emit v) (O.Schedule.copies s v)
  done;
  List.rev !log

(* The port rungs, on which every registry heuristic may duplicate. *)
let port_rungs =
  List.filter
    (fun m -> m.O.Comm_model.regime = O.Comm_model.Port)
    O.Comm_model.all

let replay_tests =
  [
    qtest ~count:150 "a replayed commit log rebuilds the schedule"
      ~print:(fun ((what, _, _), rung, hi) ->
        Printf.sprintf "%s model=%s heuristic=%s" what
          (O.Comm_model.name (List.nth port_rungs rung))
          (List.nth O.Registry.all hi).O.Registry.name)
      QCheck2.Gen.(
        tup3 instance_gen
          (int_bound (List.length port_rungs - 1))
          (int_bound (List.length O.Registry.all - 1)))
      (fun ((_, graph, plat), rung, hi) ->
        let model = List.nth port_rungs rung in
        let e = List.nth O.Registry.all hi in
        let g = graph () in
        let s = e.O.Registry.scheduler (O.Params.of_model model) plat g in
        let fresh = O.Schedule.create ~graph:g ~platform:plat ~model () in
        let engine = O.Engine.create fresh in
        (* each entry as the commit log should list it *)
        let replayed =
          List.map
            (fun (task, proc, start, comms) ->
              O.Engine.set_candidate engine ~task ~proc ~start comms;
              O.Engine.keep engine;
              if O.Schedule.is_placed fresh task then begin
                O.Engine.commit_kept_copy engine ~task;
                (task, proc)
              end
              else begin
                O.Engine.commit_kept engine ~task;
                (task, -1)
              end)
            (commit_log s)
        in
        let logged =
          List.init (O.Engine.n_commits engine) (fun i ->
              ( O.Engine.commit_task_at engine i,
                O.Engine.commit_proc_at engine i ))
        in
        let same = O.Export.fingerprint fresh = O.Export.fingerprint s in
        O.Engine.rewind engine ~to_:0;
        same && logged = replayed
        && O.Engine.n_commits engine = 0
        && O.Schedule.n_placed fresh = 0
        && O.Schedule.n_comm_events fresh = 0);
  ]

let reference_mode_tests =
  [
    Alcotest.test_case "with_reference restores the mode on exceptions" `Quick
      (fun () ->
        (try
           Engine_ref.with_reference (fun () -> failwith "boom")
         with Failure _ -> ());
        (* Back in optimized mode: pruning fires on a real grid. *)
        let g = chain_graph () in
        let engine = engine_for ~p:4 g in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        ignore (O.Engine.schedule_best engine ~task:1 : int));
    Alcotest.test_case "pruning is counted and exact" `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        let count f =
          O.Obs_counters.enable ();
          O.Obs_counters.reset ();
          Fun.protect ~finally:O.Obs_counters.disable (fun () ->
              let sched = f () in
              (fingerprint sched, O.Obs_counters.snapshot ()))
        in
        let lu = (O.Suite.find "lu").O.Suite.build ~n:6 ~ccr:0.5 in
        (* the shape of the large benchmark workload *)
        let large = layered_fan_in ~seed:7 ~layers:25 ~width:100 ~fan_in:4 in
        List.iter
          (fun (name, g, params) ->
            let fp_slow, slow =
              count (fun () ->
                  Engine_ref.with_reference (fun () ->
                      O.Heft.schedule ~params plat g))
            in
            check_int (name ^ ": reference never prunes") 0
              O.Obs_counters.(get slow pruned_evaluations);
            let fp_fast, fast =
              count (fun () -> O.Heft.schedule ~params plat g)
            in
            let what = name ^ ": " in
            check_bool (what ^ "same schedule") true (fp_fast = fp_slow);
            check_bool (what ^ "pruning fired") true
              (O.Obs_counters.(get fast pruned_evaluations) > 0);
            check_bool (what ^ "route cache hit") true
              (O.Obs_counters.(get fast route_cache_hits) > 0);
            (* Every candidate is either evaluated or pruned — none
               vanish. *)
            check_int
              (what ^ "evaluated + pruned = reference evaluations")
              O.Obs_counters.(get slow evaluations)
              O.Obs_counters.(
                get fast evaluations + get fast pruned_evaluations))
          [
            ("lu", lu, O.Params.default);
            ( "25x100 fan-in 4",
              large,
              O.Params.make ~policy:O.Engine.Insertion () );
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* The pruning bound is sound                                          *)
(* ------------------------------------------------------------------ *)

(* The port-regime rungs whose evaluator the bound mirrors. *)
let bound_rungs =
  [|
    O.Comm_model.one_port;
    O.Comm_model.one_port_unidirectional;
    O.Comm_model.macro_dataflow;
    O.Comm_model.no_overlap O.Comm_model.one_port;
    O.Comm_model.link_contention;
  |]

(* Place [g] one ready task at a time in a random order; before each
   placement, check [lower_bound <= evaluate.eft] for every ready task
   on every processor.  With [dups], a random placed task sometimes gets
   a duplicate copy on a processor lacking one, so later checks see
   copy-set schedules. *)
let bound_holds ~g ~plat ~model ~policy ~floor ~dups ~seed =
  let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
  let engine = O.Engine.create ~policy sched in
  let rng = O.Rng.create ~seed in
  let n = O.Graph.n_tasks g and p = O.Platform.p plat in
  let missing = Array.init n (O.Graph.in_degree g) in
  let ready =
    ref (List.filter (fun v -> missing.(v) = 0) (List.init n Fun.id))
  in
  let ok = ref true in
  while !ready <> [] do
    List.iter
      (fun task ->
        for proc = 0 to p - 1 do
          let lb = O.Engine.lower_bound ~floor engine ~task ~proc in
          O.Engine.price ~floor engine ~task ~proc;
          if not (lb <= O.Engine.priced_eft engine) then ok := false
        done)
      !ready;
    let v = O.Rng.pick rng (Array.of_list !ready) in
    ignore (O.Engine.schedule_best ~floor engine ~task:v : int);
    (if dups && O.Rng.bool rng then
       let u = O.Rng.int rng n and q = O.Rng.int rng p in
       if
         O.Schedule.is_placed sched u
         && O.Schedule.copy_on sched ~task:u ~proc:q = None
       then
         O.Engine.schedule_copy_on ~floor engine ~task:u ~proc:q);
    ready := List.filter (( <> ) v) !ready;
    O.Graph.iter_succ_edges g v ~f:(fun e ->
        let w = O.Graph.edge_dst g e in
        missing.(w) <- missing.(w) - 1;
        if missing.(w) = 0 then ready := w :: !ready)
  done;
  !ok && O.Validate.check sched = Ok ()

let bound_tests =
  [
    qtest ~count:200 "lower_bound <= evaluate eft at every ready step"
      ~print:(fun ((seed, layers), _, rung, (append, floor, dups)) ->
        Printf.sprintf "seed=%d layers=%d rung=%s append=%b floor=%g dups=%b"
          seed layers
          (O.Comm_model.name bound_rungs.(rung))
          append floor dups)
      QCheck2.Gen.(
        tup4
          (pair (int_bound 1_000_000) (int_range 1 5))
          platform_gen
          (int_bound (Array.length bound_rungs - 1))
          (tup3 bool (oneof [ return 0.; float_bound_inclusive 30. ]) bool))
      (fun ((seed, layers), plat, rung, (append, floor, dups)) ->
        let g =
          O.Generators.layered (O.Rng.create ~seed) ~layers ~width:4
            ~edge_prob:0.5 ~max_weight:5 ~max_data:6
        in
        bound_holds ~g ~plat ~model:bound_rungs.(rung)
          ~policy:(if append then O.Engine.Append else O.Engine.Insertion)
          ~floor ~dups ~seed);
  ]

(* ------------------------------------------------------------------ *)
(* Send-port bound stage and early abort                                *)
(* ------------------------------------------------------------------ *)

(* [f ()] with the counters it bumped. *)
let counted f =
  O.Obs_counters.enable ();
  O.Obs_counters.reset ();
  Fun.protect ~finally:O.Obs_counters.disable (fun () ->
      let r = f () in
      (r, O.Obs_counters.snapshot ()))

let check_counts what ~evaluations ~pruned ~aborted ~probes
    (c : O.Obs_counters.snapshot) =
  check_int (what ^ ": evaluations") evaluations
    O.Obs_counters.(get c evaluations);
  check_int (what ^ ": pruned") pruned
    O.Obs_counters.(get c pruned_evaluations);
  check_int (what ^ ": aborted") aborted
    O.Obs_counters.(get c aborted_evaluations);
  check_int (what ^ ": joint gap probes") probes
    O.Obs_counters.(get c joint_gap_probes)

(* The choice [schedule_best] makes for [task], read back from the
   schedule and then rewound: the processor, start and finish, and the
   comm events committed, in commit order. *)
type choice = {
  proc : int;
  est : float;
  eft : float;
  hops : (int * int * int * float * float) list;
}

let place_best engine ~task =
  let s = O.Engine.schedule engine in
  let k = O.Engine.n_commits engine and c0 = O.Schedule.n_comm_events s in
  let proc = O.Engine.schedule_best engine ~task in
  let hops =
    List.init
      (O.Schedule.n_comm_events s - c0)
      (fun i ->
        let i = c0 + i in
        O.Schedule.
          (comm_edge s i, comm_src s i, comm_dst s i, comm_start s i,
           comm_finish s i))
  in
  let choice =
    {
      proc;
      est = O.Schedule.start_of_exn s task;
      eft = O.Schedule.finish_of_exn s task;
      hops;
    }
  in
  O.Engine.rewind engine ~to_:k;
  choice

(* Best processor for [task] from both engines, the fast one counted. *)
let best_both engine ~task =
  let fast, c = counted (fun () -> place_best engine ~task) in
  let slow = Engine_ref.with_reference (fun () -> place_best engine ~task) in
  check_bool "choice = reference choice" true (fast = slow);
  (fast, c)

(* [schedule] on HEFT's STENCIL at n = 10, ccr 10, where the send port
   decides most EFTs, gives the reference schedule while pruning and
   aborting; every candidate the reference prices is either evaluated
   (aborted ones included) or pruned, none vanish. *)
let scan_is_exact schedule =
  let plat = O.Platform.paper_platform () in
  let g = (O.Suite.find "stencil").O.Suite.build ~n:10 ~ccr:10. in
  let run () = fingerprint (schedule plat g) in
  let fp_fast, fast = counted run in
  let fp_slow, slow = counted (fun () -> Engine_ref.with_reference run) in
  check_bool "same schedule" true (fp_fast = fp_slow);
  check_bool "pruning fired" true
    (O.Obs_counters.(get fast pruned_evaluations) > 0);
  check_bool "early abort fired" true
    (O.Obs_counters.(get fast aborted_evaluations) > 0);
  check_int "evaluated + pruned = reference evaluations"
    O.Obs_counters.(get slow evaluations)
    O.Obs_counters.(get fast evaluations + get fast pruned_evaluations)

let pruning_stage_tests =
  [
    Alcotest.test_case "a busy send port prunes at stage 3" `Quick (fun () ->
        (* 0 -> 1 carries 10 units, holding P0's send port over [1, 11);
           task 3 fills P0's compute over [1, 21).  Task 2 needs 12
           units from task 0: on P0 it finishes at 22.  On P1 and P2
           stage 1 gives 1 + 12 + 1 = 14 and the compute timelines are
           free at 13, so stage 2 gives 14 too; only the send port, free
           at 11, lifts the bound to 11 + 12 + 1 = 24 >= 22.  The gate's
           ceiling must count the message itself: 11 + 1 alone would
           stay below 22. *)
        let g =
          O.Graph.create ~name:"busy-send" ~weights:[| 1.; 1.; 1.; 20. |]
            ~edges:[ (0, 1, 10.); (0, 2, 12.) ]
            ()
        in
        let engine = engine_for ~p:3 g in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.schedule_on engine ~task:3 ~proc:0;
        O.Engine.schedule_on engine ~task:1 ~proc:1;
        let ev, c = best_both engine ~task:2 in
        check_int "local wins" 0 ev.proc;
        check_float "eft" 22. ev.eft;
        check_float "P1's bound sees the send port" 24.
          (O.Engine.lower_bound engine ~task:2 ~proc:1);
        (* probes: P0's compute slot and one send-port probe shared by
           P1 and P2 through the cache.  Stage 3 runs before stage 2, so
           once it prunes, neither compute timeline is probed. *)
        check_counts "stage 3" ~evaluations:1 ~pruned:2 ~aborted:0 ~probes:2 c);
    Alcotest.test_case "an exact tie goes to the lowest index" `Quick
      (fun () ->
        (* Task 0 runs on P2 over [0, 1) and feeds task 1 over a zero-data
           edge, so task 1 finishes at 2 on every processor.  The scan
           prices P2 first, the processor holding the last-arriving
           input; P0 comes before it and wins the tie, so an EFT of 2
           must neither prune nor abort it.  P1 comes after P0, the new
           incumbent, and its stage-1 bound 1 + 1 = 2 prunes it. *)
        let g =
          O.Graph.create ~name:"tie" ~weights:[| 1.; 1. |]
            ~edges:[ (0, 1, 0.) ]
            ()
        in
        let engine = engine_for ~p:3 g in
        O.Engine.schedule_on engine ~task:0 ~proc:2;
        let ev, c = best_both engine ~task:1 in
        check_int "tie to P0" 0 ev.proc;
        check_float "eft" 2. ev.eft;
        (* probes: P2's compute slot, P0's stage-2 compute probe (its
           stage 1 only reaches the cutoff) and compute slot *)
        check_counts "tie" ~evaluations:2 ~pruned:1 ~aborted:0 ~probes:3 c);
    Alcotest.test_case "early abort stops a losing candidate" `Quick (fun () ->
        (* Tasks 0 and 1 on P0 and P1 each send 5 units to task 2; tasks
           3 and 4 fill both compute timelines over [1, 9).  On P0 task 2
           finishes at 10.  P1 is pruned at stage 2 (its compute is free
           at 9: 10 >= 10).  On P2 every bound stage gives 1 + 5 + 1 = 7,
           and no send port is busy, so P2 is priced: the first message
           takes P2's receive port over [1, 6), the second waits until 11,
           so [ready + exec] = 12 >= 10 stops the pricing before the
           compute probe. *)
        let g =
          O.Graph.create ~name:"abort" ~weights:[| 1.; 1.; 1.; 8.; 8. |]
            ~edges:[ (0, 2, 5.); (1, 2, 5.) ]
            ()
        in
        let engine = engine_for ~p:3 g in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        O.Engine.schedule_on engine ~task:1 ~proc:1;
        O.Engine.schedule_on engine ~task:3 ~proc:0;
        O.Engine.schedule_on engine ~task:4 ~proc:1;
        let ev, c = best_both engine ~task:2 in
        check_int "P0 wins" 0 ev.proc;
        check_float "eft" 10. ev.eft;
        O.Engine.price engine ~task:2 ~proc:2;
        check_float "P2 really finishes at 12" 12. (O.Engine.priced_eft engine);
        (* probes: P0's hop and compute slot, P1's and P2's stage-2
           compute probes, P2's two hops — and no compute probe for P2 *)
        check_counts "abort" ~evaluations:2 ~pruned:1 ~aborted:1 ~probes:6 c);
    Alcotest.test_case "schedule_best prunes and aborts, exactly" `Quick (fun () ->
        scan_is_exact (fun plat g ->
            O.Heft.schedule ~params:O.Params.default plat g));
    Alcotest.test_case "the pending scan prunes and aborts, exactly" `Quick
      (fun () ->
        let params = O.Params.with_reschedule O.Params.default true in
        scan_is_exact (fun plat g -> O.Ilha.schedule ~params plat g));
    qtest ~count:100 "schedule_pending = reference under --reschedule"
      ~print:(fun (gspec, _, _, (b, one_comm)) ->
        Printf.sprintf "%s b=%d scan=%s" (print_graph gspec) b
          (if one_comm then "1comm" else "0comm"))
      QCheck2.Gen.(
        tup4 graph_gen platform_gen model_gen (pair (int_range 1 6) bool))
      (fun (gspec, plat, model, (b, one_comm)) ->
        let params =
          O.Params.with_scan
            (O.Params.with_b
               (O.Params.with_reschedule (O.Params.of_model model) true)
               (Some b))
            (if one_comm then O.Params.Scan_one_comm else O.Params.Scan_zero_comm)
        in
        let run () = O.Ilha.schedule ~params plat (build_graph gspec) in
        let fast = run () in
        let slow = Engine_ref.with_reference run in
        fingerprint fast = fingerprint slow);
  ]

(* ------------------------------------------------------------------ *)
(* Commit log and rewind                                                *)
(* ------------------------------------------------------------------ *)

(* Kahn's algorithm, lowest task id first — any fixed topological order
   works for exercising the commit log. *)
let topo_order g =
  let n = O.Graph.n_tasks g in
  let remaining = Array.init n (O.Graph.in_degree g) in
  let acc = ref [] in
  let placed = Array.make n false in
  for _ = 1 to n do
    let v = ref (-1) in
    for u = n - 1 downto 0 do
      if (not placed.(u)) && remaining.(u) = 0 then v := u
    done;
    placed.(!v) <- true;
    acc := !v :: !acc;
    O.Graph.iter_succ_edges g !v ~f:(fun e ->
        let u = O.Graph.edge_dst g e in
        remaining.(u) <- remaining.(u) - 1)
  done;
  List.rev !acc

let rewind_tests =
  [
    Alcotest.test_case "rewind to zero empties the schedule" `Quick (fun () ->
        let tb = O.Suite.find "lu" in
        let g = tb.O.Suite.build ~n:6 ~ccr:0.5 in
        let plat = O.Platform.paper_platform () in
        let sched =
          O.Schedule.create ~graph:g ~platform:plat
            ~model:O.Comm_model.one_port ()
        in
        let engine = O.Engine.create sched in
        List.iter
          (fun task -> ignore (O.Engine.schedule_best engine ~task))
          (topo_order g);
        check_bool "fully placed" true (O.Schedule.all_placed sched);
        O.Engine.rewind engine ~to_:0;
        check_int "no task placed" 0
          (List.length
             (List.filter
                (O.Schedule.is_placed sched)
                (List.init (O.Graph.n_tasks g) Fun.id)));
        check_int "no comm left" 0 (O.Schedule.n_comm_events sched));
    Alcotest.test_case "rewinds nest: inner mark, then outer mark" `Quick
      (fun () ->
        let g =
          O.Graph.create ~name:"chain3" ~weights:[| 1.; 2.; 1. |]
            ~edges:[ (0, 1, 3.); (1, 2, 1.) ]
            ()
        in
        let engine = engine_for g in
        let sched = O.Engine.schedule engine in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        let outer = O.Engine.n_commits engine in
        O.Engine.schedule_on engine ~task:1 ~proc:1;
        let inner = O.Engine.n_commits engine in
        O.Engine.schedule_on engine ~task:2 ~proc:0;
        check_int "three placed" 3 (O.Schedule.n_placed sched);
        check_int "two comms" 2 (O.Schedule.n_comm_events sched);
        O.Engine.rewind engine ~to_:inner;
        check_int "inner undone" 2 (O.Schedule.n_placed sched);
        check_int "one comm left" 1 (O.Schedule.n_comm_events sched);
        check_bool "task 1 kept" true (O.Schedule.is_placed sched 1);
        O.Engine.rewind engine ~to_:outer;
        check_int "outer undone" 1 (O.Schedule.n_placed sched);
        check_int "no comm left" 0 (O.Schedule.n_comm_events sched);
        check_int "log cut to the mark" outer (O.Engine.n_commits engine));
    Alcotest.test_case "rewind then a different replay validates" `Quick
      (fun () ->
        let engine = engine_for ~p:3 (join_graph ()) in
        let sched = O.Engine.schedule engine in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        let mark = O.Engine.n_commits engine in
        O.Engine.schedule_on engine ~task:1 ~proc:1;
        O.Engine.schedule_on engine ~task:2 ~proc:2;
        O.Engine.rewind engine ~to_:mark;
        (* the freed ports and processors take a different plan *)
        O.Engine.schedule_on engine ~task:1 ~proc:2;
        O.Engine.schedule_on engine ~task:2 ~proc:0;
        check_bool "fully placed" true (O.Schedule.all_placed sched);
        check_int "one comm (task 1 -> P0)" 1 (O.Schedule.n_comm_events sched);
        match O.Validate.check sched with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
    Alcotest.test_case "rewind rejects an index outside the log" `Quick
      (fun () ->
        let engine = engine_for (chain_graph ()) in
        O.Engine.schedule_on engine ~task:0 ~proc:0;
        Alcotest.check_raises "past the log"
          (Invalid_argument "Engine.rewind: bad index") (fun () ->
            O.Engine.rewind engine ~to_:2);
        Alcotest.check_raises "negative"
          (Invalid_argument "Engine.rewind: bad index") (fun () ->
            O.Engine.rewind engine ~to_:(-1));
        check_int "log untouched" 1 (O.Engine.n_commits engine);
        check_bool "placement kept" true
          (O.Schedule.is_placed (O.Engine.schedule engine) 0));
    qtest ~count:120 "rewind + identical replay = original, bit for bit"
      QCheck2.Gen.(tup3 graph_gen platform_gen model_gen)
      (fun (gspec, plat, model) ->
        let g = build_graph gspec in
        let n = O.Graph.n_tasks g in
        let order = topo_order g in
        let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
        let engine = O.Engine.create sched in
        let procs = Array.make n 0 in
        let marks = Array.make n 0 in
        List.iteri
          (fun i task ->
            marks.(i) <- O.Engine.n_commits engine;
            procs.(i) <- O.Engine.schedule_best engine ~task)
          order;
        let full = fingerprint sched in
        (* Rewind to several prefixes; replaying the same decisions must
           land on the identical schedule every time. *)
        List.for_all
          (fun k ->
            O.Engine.rewind engine ~to_:marks.(k);
            List.iteri
              (fun i task ->
                if i >= k then
                  O.Engine.schedule_on engine ~task ~proc:procs.(i))
              order;
            fingerprint sched = full)
          [ n / 2; 0; n - 1 ]);
  ]

(* ---------------- words per commit and per place step ---------------- *)

(* Minor words only: every allocation measured here is small. *)
let minor_words_of f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let words_tests =
  [
    Alcotest.test_case "a pre-grown comm store commits without allocating"
      `Quick (fun () ->
        let g =
          O.Graph.create ~name:"pair" ~weights:[| 1.; 1. |]
            ~edges:[ (0, 1, 2.) ] ()
        in
        let sched =
          O.Schedule.create ~graph:g
            ~platform:(O.Platform.homogeneous ~p:2 ~link_cost:1.)
            ~model:O.Comm_model.macro_dataflow ()
        in
        let start = Sys.opaque_identity 1. and finish = Sys.opaque_identity 3. in
        let in_window () =
          for _ = 1 to 100 do
            ignore
              (O.Schedule.add_comm_in_window sched ~edge:0 ~src_proc:0
                 ~dst_proc:1 ~start ~finish
                : float)
          done
        in
        let priced () =
          for _ = 1 to 100 do
            ignore
              (O.Schedule.add_comm sched ~edge:0 ~src_proc:0 ~dst_proc:1
                 ~start
                : float)
          done
        in
        (* grow the store, then empty it: the arrays stay *)
        in_window ();
        priced ();
        O.Schedule.truncate_comms sched ~down_to:0;
        (* the store itself writes ints and unboxed floats *)
        check_float "add_comm_in_window: words per event" 0.
          (minor_words_of in_window /. 100.);
        (* [add_comm] prices the hop first: the data, hop cost, span and
           finish it computes are boxed floats where they cross a module
           boundary in a build without cross-module inlining (4, that is
           8 words), and the finish alone in a release build *)
        let w = minor_words_of priced /. 100. in
        if w > 8. then
          Alcotest.failf "add_comm: %.1f words per event (bound 8)" w);
    Alcotest.test_case "warm HEFT place steps on LU n = 36 stay under 200 words"
      `Quick (fun () ->
        let g = (O.Suite.find "lu").O.Suite.build ~n:36 ~ccr:10. in
        let plat = O.Platform.paper_platform () in
        let priority = O.Ranking.upward g plat in
        let order = Heuristics.List_loop.decision_order ~priority g in
        let place () =
          let sched =
            O.Schedule.create ~graph:g ~platform:plat
              ~model:O.Comm_model.one_port ()
          in
          let engine = O.Engine.create sched in
          Array.iter
            (fun v -> ignore (O.Engine.schedule_best engine ~task:v : int))
            order
        in
        place ();
        (* measured: 141 words per task in a build without cross-module
           inlining, where each float crossing a module is boxed; fewer
           in a release build *)
        let per_task =
          minor_words_of place /. float_of_int (O.Graph.n_tasks g)
        in
        if per_task > 200. then
          Alcotest.failf "%.1f words per task (bound 200)" per_task);
  ]

let suite =
  basic_tests @ serialization_tests @ routing_tests @ equivalence_tests
  @ equivalence_property_tests @ replay_tests @ reference_mode_tests
  @ rewind_tests
  @ bound_tests @ pruning_stage_tests @ words_tests
