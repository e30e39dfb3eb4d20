(* Rolling-horizon online scheduling: the event grammar and the driver. *)

open Util
module O = Util.O
module E = O.Online_event
module D = O.Online_driver

let plat () = O.Platform.paper_platform ()
let ev at kind = { E.at; kind }
let arrive at job = ev at (E.Arrive job)

(* --- the trace grammar --- *)

let trace_parses () =
  (match E.of_string "arrive 0 lu:100:0.5 prio=2 deadline=300" with
  | { E.at = 0.; kind = E.Arrive j } ->
      Alcotest.(check string) "testbed" "lu" j.E.testbed;
      check_int "n" 100 j.E.n;
      check_float "ccr" 0.5 j.E.ccr;
      check_int "priority" 2 j.E.priority;
      check_float "deadline" 300. (Option.get j.E.deadline)
  | _ -> Alcotest.fail "expected an arrival");
  (match E.of_string "crash 120 1" with
  | { E.at = 120.; kind = E.Crash 1 } -> ()
  | _ -> Alcotest.fail "expected a crash");
  (match E.of_string "down 200 2" with
  | { E.kind = E.Down 2; _ } -> ()
  | _ -> Alcotest.fail "expected a down");
  (match E.of_string "rejoin 260 2" with
  | { E.kind = E.Rejoin 2; _ } -> ()
  | _ -> Alcotest.fail "expected a rejoin");
  List.iter
    (fun bad ->
      match E.of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Invalid_argument _ -> ())
    [
      ""; "arrive"; "arrive x lu:10"; "arrive 0 lu"; "arrive 0 lu:0";
      "arrive -1 lu:10"; "arrive 0 lu:10 deadline=0"; "crash 1"; "crash 1 x";
      "explode 0 1";
    ]

(* Quarter-integer times print exactly under %g, so a structured trace
   must survive print -> parse -> print unchanged. *)
let trace_roundtrip =
  qtest "event traces print/parse round-trip"
    QCheck2.Gen.(
      small_list
        (tup4 (int_bound 4000) (int_bound 3) (int_bound 9)
           (tup3 (int_bound 5) (int_bound 40) (int_bound 5))))
    (fun raw ->
      let evs =
        List.map
          (fun (ti, kind, proc, (tbi, ni, extra)) ->
            let at = float_of_int ti /. 4. in
            let kind =
              match kind with
              | 0 ->
                  let tb =
                    List.nth O.Suite.names (tbi mod List.length O.Suite.names)
                  in
                  let ccr = float_of_int (1 + extra) /. 2. in
                  let deadline =
                    if extra = 0 then None else Some (float_of_int ni +. 0.5)
                  in
                  E.Arrive (E.job ~ccr ~priority:extra ?deadline tb (ni + 1))
              | 1 -> E.Crash proc
              | 2 -> E.Down proc
              | _ -> E.Rejoin proc
            in
            { E.at; kind })
          raw
      in
      let text = E.to_trace_string evs in
      E.of_trace_string text = evs
      && E.to_trace_string (E.of_trace_string text) = text)

let trace_files_skip_comments () =
  let text = "# a comment\n\narrive 0 lu:20\ncrash 10 1  \n" in
  match E.of_trace_string text with
  | [ { E.kind = E.Arrive _; _ }; { E.kind = E.Crash 1; at = 10. } ] -> ()
  | evs -> Alcotest.failf "parsed %d events" (List.length evs)

let generators_deterministic () =
  let job = E.job "lu" 20 in
  let mk () =
    E.poisson ~rng:(O.Rng.create ~seed:7) ~rate:0.01 ~count:10 job
  in
  Alcotest.(check string)
    "same seed, same trace"
    (E.to_trace_string (mk ()))
    (E.to_trace_string (mk ()));
  check_int "count respected" 10 (List.length (mk ()));
  let rec mono = function
    | a :: b :: tl -> a.E.at <= b.E.at && mono (b :: tl)
    | _ -> true
  in
  check_bool "times nondecreasing" true (mono (mk ()));
  let bursts =
    E.bursty ~rng:(O.Rng.create ~seed:7) ~rate:0.01 ~burst:3 ~count:8 job
  in
  check_int "bursty count" 8 (List.length bursts)

let of_fault_translates () =
  (match E.of_fault (O.Fault.crash ~proc:1 ~at:5.) with
  | [ { E.at; kind = E.Crash 1 } ] -> check_float "crash time" 5. at
  | _ -> Alcotest.fail "expected one crash event");
  (match
     E.of_fault
       (O.Fault.resolve ~makespan:1. (O.Fault.of_string "outage:2@10-40"))
   with
  | [ { E.kind = E.Down 2; at = a }; { E.kind = E.Rejoin 2; at = b } ] ->
      check_float "down at" 10. a;
      check_float "rejoin at" 40. b
  | _ -> Alcotest.fail "expected down + rejoin");
  (match
     E.of_fault
       (O.Fault.resolve ~makespan:1. (O.Fault.of_string "rejoin:2@7"))
   with
  | [ { E.kind = E.Rejoin 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected one rejoin event");
  match E.of_fault (O.Fault.resolve ~makespan:1. (O.Fault.of_string "flaky:0.5")) with
  | _ -> Alcotest.fail "flaky has no event-trace counterpart"
  | exception Invalid_argument _ -> ()

(* --- the driver --- *)

(* Per-task (proc, start, finish) of the final schedule: the driver's
   bit-identity claims are checked against this. *)
let fingerprint (o : D.outcome) =
  match (o.D.schedule, o.D.graph) with
  | Some sched, Some g ->
      List.init (O.Graph.n_tasks g) (fun t ->
          match O.Schedule.placement sched t with
          | Some pl ->
              (t, pl.O.Schedule.proc, pl.O.Schedule.start, pl.O.Schedule.finish)
          | None -> (t, -1, 0., 0.))
  | _ -> []

let summary o = Format.asprintf "%a" D.pp_outcome o

let single_job_matches_offline () =
  let g = O.Kernels.lu ~n:20 ~ccr:10. in
  let offline = O.Heft.schedule (plat ()) g in
  let o = D.run (plat ()) [ arrive 0. (E.job ~ccr:10. "lu" 20) ] in
  check_float "quiet trace = offline heft" (O.Schedule.makespan offline)
    o.D.makespan;
  check_int "one replan (the initial plan)" 1 (List.length o.D.replans);
  check_int "completed" 1 o.D.completed

(* The ISSUE's acceptance drill: every registry heuristic x every
   testbed under a crash + arrival + rejoin trace.  The driver itself
   enforces validation and the frozen-prefix ledger on every re-plan
   (config defaults), so a run that returns at all certifies both; on
   top we check determinism and incremental = from-scratch, bit for
   bit. *)
let acceptance () =
  List.iter
    (fun (tb : O.Suite.t) ->
      let n = max 15 tb.O.Suite.min_n in
      let job = E.job ~ccr:5. tb.O.Suite.name n in
      List.iter
        (fun (e : O.Registry.entry) ->
          let label =
            Printf.sprintf "%s/%s" tb.O.Suite.name e.O.Registry.name
          in
          let config = { D.default_config with D.heuristic = e.O.Registry.name } in
          let probe = D.run ~config (plat ()) [ arrive 0. job ] in
          let m = probe.D.makespan in
          let trace =
            [
              arrive 0. job;
              ev (0.35 *. m) (E.Crash 1);
              arrive (0.45 *. m) job;
              ev (0.6 *. m) (E.Rejoin 1);
            ]
          in
          let a = D.run ~config (plat ()) trace in
          let b = D.run ~config (plat ()) trace in
          if fingerprint a <> fingerprint b || summary a <> summary b then
            Alcotest.failf "%s: not deterministic" label;
          let c =
            D.run ~config:{ config with D.incremental = false } (plat ()) trace
          in
          if fingerprint a <> fingerprint c then
            Alcotest.failf "%s: incremental and from-scratch disagree" label;
          if a.D.completed <> 2 then
            Alcotest.failf "%s: %d/2 jobs completed" label a.D.completed)
        O.Registry.all)
    O.Suite.all

(* The frozen-copy replay, pinned: heft-dup (dup limit 1) on FORK-JOIN
   at ccr 1, where the initial plan duplicates the fork root, under a
   crash, a second arrival and two more crashes.  The arrivals rebuild
   the engine and replay every frozen copy; the later crashes rewind the
   commit log and replay the stragglers.  Incremental = from-scratch
   alone would not notice a change to the replay both paths share, so
   the final schedule's fingerprint is pinned. *)
let copy_replay_pinned () =
  let job = E.job ~ccr:1. "fork-join" 40 in
  let params = O.Params.with_dup_limit O.Params.default 1 in
  let config = { D.default_config with D.heuristic = "heft-dup"; params } in
  let m = 53. (* the quiet trace's makespan *) in
  let trace =
    [
      arrive 0. job;
      ev (0.3 *. m) (E.Crash 1);
      arrive (0.4 *. m) job;
      ev (0.6 *. m) (E.Crash 2);
      ev (0.9 *. m) (E.Crash 3);
    ]
  in
  check_float "quiet makespan" m (D.run ~config (plat ()) [ arrive 0. job ]).D.makespan;
  List.iter
    (fun incremental ->
      let o = D.run ~config:{ config with D.incremental } (plat ()) trace in
      let what = if incremental then "incremental" else "from scratch" in
      check_int (what ^ ": replans") 5 (List.length o.D.replans);
      check_bool (what ^ ": a rewound re-plan") incremental
        (List.exists (fun (r : D.replan_report) -> r.D.incremental) o.D.replans);
      match o.D.schedule with
      | Some s ->
          check_int (what ^ ": duplicates") 4 (O.Schedule.n_dup_copies s);
          Alcotest.(check string)
            (what ^ ": fingerprint") "611ecc4b18dd50583815942aeefae530"
            (O.Export.fingerprint s)
      | None -> Alcotest.fail "no plan")
    [ true; false ]

let shedding_protects_deadlines () =
  let low = E.job ~priority:0 "lu" 12 in
  let high = E.job ~priority:5 ~deadline:1. "stencil" 12 in
  let o = D.run (plat ()) [ arrive 0. low; arrive 0. high ] in
  check_int "low-priority job shed" 1 o.D.shed;
  check_int "impossible deadline still missed" 1 o.D.deadline_misses;
  (match o.D.jobs with
  | [ a; b ] ->
      check_bool "job 0 shed" true (a.D.state = D.Shed);
      check_bool "job 1 completed late" true
        (b.D.state = D.Completed && b.D.missed)
  | _ -> Alcotest.fail "expected two job reports");
  check_bool "a shed replan ran" true
    (List.exists (fun r -> r.D.trigger = "shed") o.D.replans)

(* Two unstarted jobs share the lowest priority: the newer one is shed.
   The deadline is the urgent job's finish beside a single low job, so
   one shed meets it whichever low job goes. *)
let shedding_prefers_the_newest () =
  let low = E.job ~priority:0 "lu" 12 in
  let urgent ?deadline () = E.job ~priority:5 ?deadline "stencil" 12 in
  let beside_one = D.run (plat ()) [ arrive 0. low; arrive 0. (urgent ()) ] in
  let deadline = (List.nth beside_one.D.jobs 1).D.finish in
  let o =
    D.run (plat ())
      [ arrive 0. low; arrive 0. low; arrive 0. (urgent ~deadline ()) ]
  in
  check_int "one job shed" 1 o.D.shed;
  check_int "deadline met" 0 o.D.deadline_misses;
  match List.map (fun (j : D.job_report) -> j.D.state) o.D.jobs with
  | [ D.Completed; D.Shed; D.Completed ] -> ()
  | _ -> Alcotest.fail "expected the newer low-priority job to be shed"

let admission_control () =
  let job = E.job "fork-join" 12 in
  let config = { D.default_config with D.max_active = 1; queue_cap = 1 } in
  let o = D.run ~config (plat ()) (List.init 3 (fun _ -> arrive 0. job)) in
  check_int "one rejected" 1 o.D.rejected;
  check_int "queued job drained" 2 o.D.completed;
  match List.map (fun (j : D.job_report) -> j.D.state) o.D.jobs with
  | [ D.Completed; D.Completed; D.Rejected ] -> ()
  | _ -> Alcotest.fail "unexpected job states"

let give_up_after_retries () =
  let config = { D.default_config with D.backoff = 5.; max_retries = 4 } in
  let o =
    D.run ~config (plat ())
      [ arrive 0. (E.job "lu" 15); ev 10. (E.Down 2) ]
  in
  check_int "every probe failed" 4 o.D.retries;
  check_bool "backoff time accumulated" true (o.D.backoff_s > 0.);
  check_int "job still completes" 1 o.D.completed;
  check_bool "give-up replan ran" true
    (List.exists (fun r -> r.D.trigger = "give-up") o.D.replans)

let budget_rejects_arrivals () =
  let job = E.job "lu" 12 in
  let config = { D.default_config with D.replan_budget = 1 } in
  let o = D.run ~config (plat ()) [ arrive 0. job; arrive 1. job ] in
  check_bool "budget exhausted" true o.D.budget_exhausted;
  check_int "late arrival rejected" 1 o.D.rejected;
  check_int "first job completed" 1 o.D.completed

let rejects_bad_input () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "negative time" true
    (raises (fun () -> D.run (plat ()) [ arrive (-1.) (E.job "lu" 12) ]));
  check_bool "bad processor" true
    (raises (fun () -> D.run (plat ()) [ ev 0. (E.Crash 99) ]));
  check_bool "unknown heuristic" true
    (raises (fun () ->
         D.run
           ~config:{ D.default_config with D.heuristic = "nope" }
           (plat ()) []));
  check_bool "non-port model" true
    (raises (fun () ->
         let params = O.Params.of_model (O.Comm_model.bsp ~g:1. ~l:1.) in
         D.run ~config:{ D.default_config with D.params } (plat ()) []));
  (* a bad policy knob is refused up front, before any event runs: a
     zero job cap used to queue arrivals and then drain forever *)
  let job = [ arrive 0. (E.job "lu" 12) ] in
  List.iter
    (fun (what, config) ->
      check_bool what true (raises (fun () -> D.run ~config (plat ()) job)))
    [
      ("max_active 0", { D.default_config with D.max_active = 0 });
      ("negative queue_cap", { D.default_config with D.queue_cap = -1 });
      ("negative max_retries", { D.default_config with D.max_retries = -1 });
      ("negative backoff", { D.default_config with D.backoff = -1. });
      ("infinite backoff", { D.default_config with D.backoff = infinity });
      ("nan backoff", { D.default_config with D.backoff = nan });
      (* the last retry's pause, 2^1999, used to overflow to infinity *)
      ( "total backoff overflows",
        { D.default_config with D.backoff = 1.; D.max_retries = 2000 } );
    ];
  (* with no backoff at all, many retries are fine: every pause is 0, not
     the NaN of [0 * 2^1100] *)
  let outage = [ arrive 0. (E.job "lu" 10); ev 5. (E.Down 1) ] in
  let r =
    D.run
      ~config:{ D.default_config with D.backoff = 0.; D.max_retries = 1100 }
      (plat ()) outage
  in
  check_int "zero backoff, 1100 retries" 1100 r.D.retries

let suite =
  [
    Alcotest.test_case "trace grammar parses and rejects" `Quick trace_parses;
    trace_roundtrip;
    Alcotest.test_case "trace files skip comments and blanks" `Quick
      trace_files_skip_comments;
    Alcotest.test_case "arrival generators are deterministic" `Quick
      generators_deterministic;
    Alcotest.test_case "faults translate to trace events" `Quick
      of_fault_translates;
    Alcotest.test_case "a quiet trace reproduces the offline schedule" `Quick
      single_job_matches_offline;
    Alcotest.test_case
      "acceptance: crash + arrival + rejoin on all testbeds x heuristics"
      `Slow acceptance;
    Alcotest.test_case "the frozen-copy replay is pinned" `Quick
      copy_replay_pinned;
    Alcotest.test_case "graceful degradation sheds by priority" `Quick
      shedding_protects_deadlines;
    Alcotest.test_case "shedding drops the newest among equal priorities"
      `Quick shedding_prefers_the_newest;
    Alcotest.test_case "admission control queues then rejects" `Quick
      admission_control;
    Alcotest.test_case "down processors are retried then given up" `Quick
      give_up_after_retries;
    Alcotest.test_case "the replan budget rejects late arrivals" `Quick
      budget_rejects_arrivals;
    Alcotest.test_case "driver rejects bad input" `Quick rejects_bad_input;
  ]
