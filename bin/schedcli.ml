(* schedcli — command-line front end for the one-port scheduling library.

   Subcommands:
     run         schedule one testbed and print metrics (optionally a Gantt)
     figures     regenerate the paper's experiments (all or a subset)
     analyze     print the structural summary of a testbed graph
     dot         emit Graphviz for a testbed (optionally coloured by mapping)
     robustness  Monte-Carlo jitter analysis of a heuristic's schedule
     online      rolling-horizon event-driven scheduling with re-planning
     serve       run the scheduld scheduler-as-a-service daemon
     client      submit/status/watch/drain against a running daemon
     list        enumerate testbeds, heuristics, models and experiments *)

open Cmdliner
module O = Onesched

let model_conv =
  let parse s =
    match O.Comm_model.of_name s with
    | m -> Ok m
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (O.Comm_model.name m))

let model_arg =
  let doc =
    Printf.sprintf "Communication model: %s."
      (String.concat ", " (List.map O.Comm_model.name O.Comm_model.all))
  in
  Arg.(value & opt model_conv O.Comm_model.one_port & info [ "model" ] ~doc)

let testbed_arg =
  let doc =
    Printf.sprintf "Testbed: %s, or layered:LAYERS:WIDTH for a random layered DAG."
      (String.concat ", " O.Suite.names)
  in
  (* Validate eagerly through [Suite.find] so an unknown name or a
     malformed layered:L:W spec is a parse error, not a crash later. *)
  let testbed_conv =
    let parse s =
      match O.Suite.find s with
      | (_ : O.Suite.t) -> Ok s
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  Arg.(value & opt testbed_conv "lu" & info [ "testbed"; "t" ] ~doc)

let size_arg =
  Arg.(value & opt int 50 & info [ "size"; "n" ] ~doc:"Problem size n.")

let ccr_arg =
  Arg.(
    value & opt float 10.
    & info [ "ccr"; "c" ] ~doc:"Communication-to-computation ratio (paper: 10).")

let heuristic_arg =
  let doc =
    Printf.sprintf "Heuristic: %s." (String.concat ", " O.Registry.names)
  in
  Arg.(value & opt string "ilha" & info [ "heuristic"; "H" ] ~doc)

let b_arg =
  Arg.(
    value & opt (some int) None
    & info [ "b" ] ~doc:"ILHA chunk size B (default: the platform's perfect-balance chunk).")

let policy_arg =
  Arg.(
    value
    & opt
        (enum [ ("insertion", O.Engine.Insertion); ("append", O.Engine.Append) ])
        O.Engine.Insertion
    & info [ "policy" ]
        ~doc:"Slot-search policy: insertion (fill idle gaps) or append.")

let scan_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("0comm", O.Params.Scan_zero_comm);
             ("1comm", O.Params.Scan_one_comm) ])
        O.Params.Scan_zero_comm
    & info [ "scan" ]
        ~doc:"ILHA placement scan: 0comm (paper) or 1comm (par. 4.4 refinement).")

let reschedule_arg =
  Arg.(
    value & flag
    & info [ "reschedule" ] ~doc:"Enable ILHA's par. 4.4 chunk-rescheduling step.")

let averaging_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("balanced", O.Ranking.Balanced);
             ("arithmetic", O.Ranking.Arithmetic);
             ("optimistic", O.Ranking.Optimistic) ])
        O.Ranking.Balanced
    & info [ "averaging" ]
        ~doc:"HEFT rank-averaging rule: balanced (par. 4.1), arithmetic, optimistic.")

let duplication_arg =
  let limit_conv =
    let error s expected =
      Error
        (`Msg
           (Printf.sprintf "invalid duplication limit %S (expected a %s \
                            integer)"
              s expected))
    in
    let parse s =
      match int_of_string_opt s with
      | Some d when d >= 1 -> Ok d
      | Some 0 -> error s "positive"
      | _ -> error s "non-negative"
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt ~vopt:(Some 1) (some limit_conv) None
    & info [ "duplication" ] ~docv:"LIMIT"
        ~doc:"Allow task duplication, with at most $(docv) extra copies per \
              task, a positive integer (1 when given without a value).  \
              Only duplication-aware heuristics such as heft-dup use it, \
              and heft-dup always tries at least one copy: to schedule \
              without duplication, pick a heuristic that does not \
              duplicate, such as heft.")

(* One Params.t value assembled from the shared flags; every subcommand
   that schedules takes this single term. *)
let params_term =
  let make model policy averaging b scan reschedule duplication =
    let p = O.Params.make ~model ~policy ~averaging ?b ~scan ~reschedule () in
    match duplication with None -> p | Some d -> O.Params.with_dup_limit p d
  in
  Term.(
    const make $ model_arg $ policy_arg $ averaging_arg $ b_arg $ scan_arg
    $ reschedule_arg $ duplication_arg)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print engine counters and per-phase timings after scheduling.")

(* [--jobs] of batch, robustness and serve: a domain count of at least 1,
   so 0 is a usage error rather than an exception out of the pool. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> Ok j
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid job count %S (expected a positive integer)"
                s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_cap_doc =
  Printf.sprintf "Values above %d use %d domains." O.Pool.max_jobs
    O.Pool.max_jobs

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv (O.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          ("Shard the sweep over $(docv) domains (default: the machine's \
            recommended domain count, capped at 8).  Output is \
            byte-identical to --jobs 1.  " ^ jobs_cap_doc))

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome-trace (chrome://tracing, Perfetto) JSON of the \
              scheduler run itself to $(docv).")

(* Flip the observability switches on when the run asks for them; returns
   the scheduler's result plus the scoped report. *)
let with_observability ~stats ~trace f =
  let observing = stats || trace <> None in
  if observing then begin
    O.Obs_counters.enable ();
    O.Obs_counters.reset ();
    O.Obs_span.enable ();
    O.Obs_span.reset ()
  end;
  let x, report = O.Obs_report.capture f in
  (match trace with
  | Some path ->
      O.Obs_trace.write
        ~counters:report.O.Obs_report.counters
        path (O.Obs_span.events ());
      Printf.printf "wrote trace %s\n" path
  | None -> ());
  if stats then Format.printf "%a@." O.Obs_report.pp report;
  x

let gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Also print an ASCII Gantt chart.")

let homogeneous_arg =
  Arg.(
    value & opt (some int) None
    & info [ "homogeneous" ]
        ~doc:"Use P same-speed processors instead of the paper's 10-processor platform.")

let graph_file_arg =
  Arg.(
    value & opt (some file) None
    & info [ "graph" ]
        ~doc:"Load the task graph from a text file (see Graph_io) instead of \
              building a testbed.")

let platform_file_arg =
  Arg.(
    value & opt (some file) None
    & info [ "platform" ]
        ~doc:"Load the platform from a text description instead of the \
              built-in ones.")

let build_graph testbed n ccr =
  let suite = O.Suite.find testbed in
  suite.O.Suite.build ~n:(max n suite.O.Suite.min_n) ~ccr

let resolve_graph graph_file testbed n ccr =
  match graph_file with
  | Some path -> O.Graph_io.load path
  | None -> build_graph testbed n ccr

let resolve_platform platform_file homogeneous =
  match platform_file with
  | Some path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          O.Platform.of_description
            (really_input_string ic (in_channel_length ic)))
  | None -> (
      match homogeneous with
      | Some p -> O.Platform.homogeneous ~p ~link_cost:1.
      | None -> O.Platform.paper_platform ())

let run_cmd =
  let refine_arg =
    Arg.(
      value & flag
      & info [ "refine" ] ~doc:"Apply the allocation local-search post-pass.")
  in
  let anneal_arg =
    Arg.(
      value & flag
      & info [ "anneal" ]
          ~doc:"Apply the simulated-annealing allocation post-pass (after \
                --refine if both are given).")
  in
  let anneal_steps_arg =
    Arg.(
      value
      & opt int O.Anneal.default_params.O.Anneal.steps
      & info [ "anneal-steps" ] ~docv:"N"
          ~doc:"Number of annealing proposals for --anneal.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int O.Anneal.default_params.O.Anneal.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for --anneal (runs are deterministic per seed).")
  in
  let util_arg =
    Arg.(
      value & flag
      & info [ "utilization" ] ~doc:"Print per-resource utilization profiles.")
  in
  let fingerprint_arg =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:
            "Print the schedule's MD5 fingerprint (bit-exact plan digest; \
             what scheduld reports for the same submission).")
  in
  let action testbed n ccr heuristic params homogeneous gantt refine anneal
      anneal_steps seed util fingerprint stats trace graph_file platform_file =
    let plat = resolve_platform platform_file homogeneous in
    let g = resolve_graph graph_file testbed n ccr in
    let entry = O.Registry.find heuristic in
    let t0 = Sys.time () in
    (* The improvers run inside the observed scope so that --stats and
       --trace account for their rollback/replay work, and the improved
       schedule flows through the same validation/metrics/gantt printing
       as an unimproved one. *)
    let sched =
      with_observability ~stats ~trace (fun () ->
          let sched = entry.O.Registry.scheduler params plat g in
          (* the allocation improvers move whole tasks and do not
             understand copy-sets; skip them on duplicated schedules *)
          let sched =
            if not refine then sched
            else if O.Schedule.has_dups sched then begin
              print_endline
                "refine: skipped (schedule holds duplicate copies)";
              sched
            end
            else begin
              let r = O.Refine.improve sched in
              Printf.printf "refine: %g -> %g (%d moves, %d evaluations)\n"
                r.O.Refine.initial_makespan r.O.Refine.final_makespan
                r.O.Refine.accepted_moves r.O.Refine.evaluations;
              r.O.Refine.schedule
            end
          in
          if not anneal then sched
          else if O.Schedule.has_dups sched then begin
            print_endline "anneal: skipped (schedule holds duplicate copies)";
            sched
          end
          else begin
            let aparams =
              { O.Anneal.default_params with
                O.Anneal.steps = anneal_steps;
                O.Anneal.seed = seed;
              }
            in
            let r = O.Anneal.improve ~params:aparams sched in
            Printf.printf "anneal: %g -> %g (%d accepted, %d improved)\n"
              r.O.Anneal.initial_makespan r.O.Anneal.final_makespan
              r.O.Anneal.accepted r.O.Anneal.improved;
            r.O.Anneal.schedule
          end)
    in
    let dt = Sys.time () -. t0 in
    let metrics = O.Metrics.compute sched in
    Format.printf "%s on %s (%s), scheduled in %.2fs@.%a@."
      entry.O.Registry.name (O.Graph.name g)
      (O.Comm_model.name params.O.Params.model)
      dt O.Metrics.pp metrics;
    Printf.printf "lower-bound quality: %.3fx (1.0 = provably optimal)\n"
      (O.Bounds.quality sched);
    (match O.Validate.check sched with
    | Ok () -> print_endline "schedule: VALID"
    | Error es ->
        Printf.printf "schedule: INVALID (%d violations)\n" (List.length es);
        List.iteri (fun i e -> if i < 5 then print_endline ("  " ^ e)) es);
    if fingerprint then
      Printf.printf "fingerprint: %s\n" (O.Export.fingerprint sched);
    if gantt then print_string (O.Gantt.render sched);
    if util then print_string (O.Utilization.render (O.Utilization.profile sched))
  in
  let term =
    Term.(
      const action $ testbed_arg $ size_arg $ ccr_arg $ heuristic_arg
      $ params_term $ homogeneous_arg $ gantt_arg $ refine_arg $ anneal_arg
      $ anneal_steps_arg $ seed_arg $ util_arg $ fingerprint_arg $ stats_arg
      $ trace_arg $ graph_file_arg $ platform_file_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Schedule a testbed (or --graph/--platform files) and print metrics.")
    term

let export_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("csv", `Csv); ("svg", `Svg) ]) `Chrome
      & info [ "format" ]
          ~doc:"Output format: chrome (trace JSON), csv, or svg (Gantt).")
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output file (default: stdout).")
  in
  let action testbed n ccr heuristic params format output =
    let plat = O.Platform.paper_platform () in
    let g = build_graph testbed n ccr in
    let entry = O.Registry.find heuristic in
    let sched = entry.O.Registry.scheduler params plat g in
    let contents =
      match format with
      | `Chrome -> O.Export.to_chrome_trace sched
      | `Csv -> O.Export.to_csv sched
      | `Svg -> O.Svg.render sched
    in
    match output with
    | None -> print_string contents
    | Some path ->
        O.Export.write_file path contents;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a schedule as a Chrome trace (chrome://tracing) or CSV.")
    Term.(
      const action $ testbed_arg $ size_arg $ ccr_arg $ heuristic_arg
      $ params_term $ format_arg $ output_arg)

let autob_cmd =
  let action testbed n ccr model =
    let plat = O.Platform.paper_platform () in
    let g = build_graph testbed n ccr in
    let r = O.Auto_b.search ~params:(O.Params.of_model model) plat g in
    print_endline "B     makespan";
    List.iter
      (fun (b, m) ->
        Printf.printf "%-5d %g%s\n" b m
          (if b = r.O.Auto_b.best_b then "   <- best" else ""))
      r.O.Auto_b.trials
  in
  Cmd.v
    (Cmd.info "auto-b" ~doc:"Search ILHA's chunk size B (the §5.3 tuning loop).")
    Term.(const action $ testbed_arg $ size_arg $ ccr_arg $ model_arg)

let figures_cmd =
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~doc:"Run only this experiment id (repeatable).")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ]
          ~doc:"Scale the paper's problem sizes (0.2 turns 100-500 into 20-100).")
  in
  let action only scale =
    let cfg = O.Config.paper ~scale () in
    let figs =
      match only with [] -> O.Figures.all | ids -> List.map O.Figures.find ids
    in
    List.iter
      (fun f ->
        Printf.printf "[%s] %s\npaper: %s\n\n%s\n" f.O.Figures.id
          f.O.Figures.title f.O.Figures.paper_claim (f.O.Figures.render cfg))
      figs
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const action $ only $ scale)

let analyze_cmd =
  let action testbed n ccr =
    let g = build_graph testbed n ccr in
    Format.printf "%a@.%a@." O.Graph.pp g O.Analysis.pp_summary
      (O.Analysis.summarize g)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the structural summary of a testbed graph.")
    Term.(const action $ testbed_arg $ size_arg $ ccr_arg)

let dot_cmd =
  let mapped =
    Arg.(
      value & flag
      & info [ "mapped" ] ~doc:"Colour tasks by the processor ILHA assigns them.")
  in
  let action testbed n ccr mapped =
    let g = build_graph testbed n ccr in
    if mapped then begin
      let plat = O.Platform.paper_platform () in
      let sched = O.Ilha.schedule plat g in
      print_string
        (O.Dot.with_allocation g ~proc_of:(fun v ->
             (O.Schedule.placement_exn sched v).O.Schedule.proc))
    end
    else print_string (O.Dot.to_string g)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for a testbed graph.")
    Term.(const action $ testbed_arg $ size_arg $ ccr_arg $ mapped)

let robustness_cmd =
  let jitter =
    Arg.(value & opt float 0.3 & info [ "jitter" ] ~doc:"Relative duration jitter.")
  in
  let trials =
    Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Monte-Carlo trials.")
  in
  let task_jitter =
    Arg.(
      value & opt (some float) None
      & info [ "task-jitter" ]
          ~doc:"Task-duration jitter (default: --jitter; 0 in --fault mode).")
  in
  let comm_jitter =
    Arg.(
      value & opt (some float) None
      & info [ "comm-jitter" ]
          ~doc:"Communication-duration jitter (default: --jitter; 0 in --fault mode).")
  in
  let fault_conv =
    let parse s =
      match O.Fault.of_string s with
      | (_ : O.Fault.spec) -> Ok s
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let faults =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ]
          ~doc:
            "Inject a fault (repeatable): crash:P@T, outage:P@T1-T2, \
             degrade:PxF, or flaky:PROB[:RETRIES[:BACKOFF]].  Times are \
             absolute or a percentage of the nominal makespan (25%).  \
             Crashes are repaired online; the repaired schedule is \
             validated and executed under the scenario.")
  in
  let describe label = function
    | O.Faulty_executor.Completed { trace; stats } ->
        Printf.printf "%s: completed, makespan %g" label
          trace.O.Executor.makespan;
        if stats.O.Faulty_executor.retries > 0 then
          Printf.printf " (retries %d, backoff time %g)"
            stats.O.Faulty_executor.retries
            stats.O.Faulty_executor.backoff_time;
        if stats.O.Faulty_executor.deferred > 0 then
          Printf.printf " (%d dispatches deferred)"
            stats.O.Faulty_executor.deferred;
        print_newline ()
    | O.Faulty_executor.Stranded
        { stranded; events_fired; total_events; partial_makespan; _ } ->
        Printf.printf
          "%s: STRANDED %d tasks (%d/%d events fired, partial makespan %g)\n"
          label (List.length stranded) events_fired total_events
          partial_makespan
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the Monte-Carlo trials (deterministic per seed).")
  in
  let fault_mode params trials task_jitter comm_jitter specs seed sched =
    let nominal = O.Schedule.makespan sched in
    let faults =
      List.map
        (fun s -> O.Fault.resolve ~makespan:nominal (O.Fault.of_string s))
        specs
    in
    let p = O.Platform.p (O.Schedule.platform sched) in
    List.iter (O.Fault.validate ~p) faults;
    Printf.printf "nominal makespan: %g\n" nominal;
    Printf.printf "faults:           %s\n"
      (String.concat " " (List.map O.Fault.to_string faults));
    describe "without repair" (O.Faulty_executor.run ~faults sched);
    let crashes =
      List.filter_map
        (function O.Fault.Crash { proc; at } -> Some (proc, at) | _ -> None)
        faults
      |> List.sort (fun (_, a) (_, b) -> compare (a : float) b)
    in
    let all_dead = List.map fst crashes in
    let final =
      List.fold_left
        (fun s (proc, at) ->
          let dead = List.filter (fun q -> q <> proc) all_dead in
          let r = O.Repair.crash ~params ~dead ~proc ~at s in
          Format.printf "%a@." O.Repair.pp_result r;
          r.O.Repair.schedule)
        sched crashes
    in
    if crashes <> [] then begin
      (match O.Validate.check final with
      | Ok () -> print_endline "repaired schedule: valid"
      | Error es ->
          Printf.printf "repaired schedule: INVALID (%s)\n" (List.hd es));
      describe "with repair" (O.Faulty_executor.run ~faults final)
    end;
    (* Monte-Carlo over the scenario: flaky draws and (optional) jitter. *)
    let tj = Option.value task_jitter ~default:0. in
    let cj = Option.value comm_jitter ~default:0. in
    let rng = O.Rng.create ~seed in
    let survived = ref 0 in
    let retries = ref 0 in
    let backoff = ref 0. in
    let makespans = ref [] in
    for _ = 1 to trials do
      match
        O.Faulty_executor.run ~rng ~task_jitter:tj ~comm_jitter:cj ~faults
          final
      with
      | O.Faulty_executor.Completed { trace; stats } ->
          incr survived;
          makespans := trace.O.Executor.makespan :: !makespans;
          retries := !retries + stats.O.Faulty_executor.retries;
          backoff := !backoff +. stats.O.Faulty_executor.backoff_time
      | O.Faulty_executor.Stranded { stats; _ } ->
          retries := !retries + stats.O.Faulty_executor.retries;
          backoff := !backoff +. stats.O.Faulty_executor.backoff_time
    done;
    Printf.printf "monte-carlo:      %d trials, survived %d (unschedulable rate %.0f%%)\n"
      trials !survived
      (100. *. float_of_int (trials - !survived) /. float_of_int trials);
    if !makespans <> [] then
      Printf.printf "makespan:         mean %g  p95 %g  worst %g\n"
        (O.Stats.mean !makespans)
        (O.Stats.percentile 95. !makespans)
        (O.Stats.maximum !makespans);
    if !retries > 0 then
      Printf.printf "retries:          %d total, backoff time %g total\n"
        !retries !backoff
  in
  let action testbed n ccr heuristic params jitter trials task_jitter
      comm_jitter faults jobs seed homogeneous graph_file platform_file =
    let plat = resolve_platform platform_file homogeneous in
    let g = resolve_graph graph_file testbed n ccr in
    let entry = O.Registry.find heuristic in
    let sched = entry.O.Registry.scheduler params plat g in
    match faults with
    | [] ->
        let rng = O.Rng.create ~seed in
        Format.printf "%a@." O.Robustness.pp_stats
          (O.Robustness.monte_carlo ?task_jitter ?comm_jitter ~jobs sched rng
             ~jitter ~trials)
    | specs -> (
        try fault_mode params trials task_jitter comm_jitter specs seed sched
        with Invalid_argument msg ->
          Printf.eprintf "schedcli: %s\n" msg;
          exit 2)
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:
         "Monte-Carlo jitter analysis and fault injection on a schedule.  \
          The jitter Monte-Carlo shards its trials over --jobs domains; \
          every statistic is bit-identical to --jobs 1.")
    Term.(
      const action $ testbed_arg $ size_arg $ ccr_arg $ heuristic_arg
      $ params_term $ jitter $ trials $ task_jitter $ comm_jitter $ faults
      $ jobs_arg $ seed_arg $ homogeneous_arg $ graph_file_arg
      $ platform_file_arg)

let online_cmd =
  let trace_file_arg =
    Arg.(
      value & opt (some file) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Read the event trace from $(docv) (one event per line; see \
             doc/online.md).  Overrides --arrival.")
  in
  let arrival_arg =
    Arg.(
      value & opt (some string) None
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:
            "Generate arrivals of the template job (-t/-n/-c): \
             poisson:RATE[:COUNT] or bursty:RATE:BURST[:COUNT] (COUNT \
             defaults to 5).  Deterministic per --seed.  Without \
             --trace-file and --arrival, a single job arrives at t = 0.")
  in
  let fault_conv =
    let parse s =
      match O.Fault.of_string s with
      | (_ : O.Fault.spec) -> Ok s
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let faults_arg =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ]
          ~doc:
            "Inject a fault as trace events (repeatable): crash:P@T, \
             outage:P@T1-T2 (becomes down + rejoin), or rejoin:P@T.  \
             Times must be absolute — there is no nominal makespan to \
             anchor percentages against in an online run.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"D"
          ~doc:
            "Deadline for generated arrivals, relative to each job's \
             arrival instant.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for --arrival (runs are deterministic per seed).")
  in
  let max_active_arg =
    Arg.(
      value & opt int O.Online_driver.default_config.O.Online_driver.max_active
      & info [ "max-active" ] ~doc:"Admission control: concurrent job cap.")
  in
  let queue_arg =
    Arg.(
      value & opt int O.Online_driver.default_config.O.Online_driver.queue_cap
      & info [ "queue" ] ~doc:"FIFO backlog capacity beyond --max-active.")
  in
  let budget_arg =
    Arg.(
      value
      & opt int O.Online_driver.default_config.O.Online_driver.replan_budget
      & info [ "replan-budget" ]
          ~doc:"Re-plans allowed before arrivals are rejected.")
  in
  let retries_arg =
    Arg.(
      value & opt int O.Online_driver.default_config.O.Online_driver.max_retries
      & info [ "retries" ]
          ~doc:"Probes before a down processor is declared dead.")
  in
  let backoff_arg =
    Arg.(
      value & opt float O.Online_driver.default_config.O.Online_driver.backoff
      & info [ "backoff" ]
          ~doc:"First probe delay for a down processor; doubles per retry.")
  in
  let from_scratch_arg =
    Arg.(
      value & flag
      & info [ "from-scratch" ]
          ~doc:
            "Rebuild every re-plan from scratch instead of rewinding the \
             commit log (the baseline incremental re-planning is timed \
             against).")
  in
  let parse_arrival spec rng job =
    let num what conv s =
      match conv s with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "--arrival: bad %s %S in %S" what s spec)
    in
    match String.split_on_char ':' spec with
    | [ "poisson"; rate ] | [ "poisson"; rate; "" ] ->
        O.Online_event.poisson ~rng
          ~rate:(num "rate" float_of_string_opt rate)
          ~count:5 job
    | [ "poisson"; rate; count ] ->
        O.Online_event.poisson ~rng
          ~rate:(num "rate" float_of_string_opt rate)
          ~count:(num "count" int_of_string_opt count)
          job
    | [ "bursty"; rate; burst ] ->
        O.Online_event.bursty ~rng
          ~rate:(num "rate" float_of_string_opt rate)
          ~burst:(num "burst" int_of_string_opt burst)
          ~count:5 job
    | [ "bursty"; rate; burst; count ] ->
        O.Online_event.bursty ~rng
          ~rate:(num "rate" float_of_string_opt rate)
          ~burst:(num "burst" int_of_string_opt burst)
          ~count:(num "count" int_of_string_opt count)
          job
    | _ ->
        invalid_arg
          (Printf.sprintf
             "--arrival: expected poisson:RATE[:COUNT] or \
              bursty:RATE:BURST[:COUNT], got %S"
             spec)
  in
  let action testbed n ccr heuristic params trace_file arrival faults deadline
      seed max_active queue_cap replan_budget max_retries backoff from_scratch
      stats trace =
    try
      let job = O.Online_event.job ~ccr ?deadline testbed n in
      let arrivals =
        match (trace_file, arrival) with
        | Some path, _ -> O.Online_event.load path
        | None, Some spec ->
            parse_arrival spec (O.Rng.create ~seed) job
        | None, None ->
            [ { O.Online_event.at = 0.; kind = O.Online_event.Arrive job } ]
      in
      let fault_events =
        List.concat_map
          (fun s ->
            let f =
              try O.Fault.resolve ~makespan:0. (O.Fault.of_string s)
              with Invalid_argument _ ->
                invalid_arg
                  (Printf.sprintf
                     "--fault: online fault times must be absolute, got %S" s)
            in
            O.Online_event.of_fault f)
          faults
      in
      let events = O.Online_event.sort (arrivals @ fault_events) in
      let config =
        {
          O.Online_driver.params;
          heuristic;
          max_active;
          queue_cap;
          replan_budget;
          max_retries;
          backoff;
          incremental = not from_scratch;
        }
      in
      let outcome =
        with_observability ~stats ~trace (fun () ->
            O.Online_driver.run ~config (O.Platform.paper_platform ()) events)
      in
      Format.printf "%a@." O.Online_driver.pp_outcome outcome;
      let n_replans = List.length outcome.O.Online_driver.replans in
      Printf.printf "validator:        ok (%d replans checked)\n" n_replans;
      if n_replans > 0 then begin
        let walls =
          List.map
            (fun r -> 1000. *. r.O.Online_driver.wall_s)
            outcome.O.Online_driver.replans
        in
        Printf.printf "replan latency:   p50 %.3f ms  p99 %.3f ms\n"
          (O.Stats.percentile 50. walls)
          (O.Stats.percentile 99. walls)
      end
    with Invalid_argument msg | Failure msg ->
      Printf.eprintf "schedcli: %s\n" msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Rolling-horizon online scheduling: consume an event trace (job \
          arrivals, crashes, outages, rejoins) against the template job, \
          re-planning the un-executed suffix after each disruption.  Every \
          re-plan is validated and the executed prefix is kept bit-identical; \
          see doc/online.md.")
    Term.(
      const action $ testbed_arg $ size_arg $ ccr_arg $ heuristic_arg
      $ params_term $ trace_file_arg $ arrival_arg $ faults_arg $ deadline_arg
      $ seed_arg $ max_active_arg $ queue_arg $ budget_arg $ retries_arg
      $ backoff_arg $ from_scratch_arg $ stats_arg $ trace_arg)

let compare_cmd =
  let against_arg =
    Arg.(
      value & opt string "heft"
      & info [ "against" ] ~doc:"Second heuristic to compare with.")
  in
  let action testbed n ccr heuristic against params =
    let plat = O.Platform.paper_platform () in
    let g = build_graph testbed n ccr in
    let sched_of name =
      (O.Registry.find name).O.Registry.scheduler params plat g
    in
    let a = sched_of heuristic and b = sched_of against in
    Format.printf "%s (a) vs %s (b) on %s@.%a@." heuristic against
      (O.Graph.name g) O.Compare.pp (O.Compare.diff a b);
    let d = O.Compare.diff a b in
    List.iteri
      (fun i (v, pa, pb) ->
        if i < 10 then Printf.printf "  task %d: P%d vs P%d\n" v pa pb)
      d.O.Compare.moved_tasks
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Diff the schedules of two heuristics.")
    Term.(
      const action $ testbed_arg $ size_arg $ ccr_arg $ heuristic_arg
      $ against_arg $ params_term)

(* One implementation behind two names: `batch` (primary) and `grid`
   (the historical name, kept for scripts).  --jobs shards the grid
   cells over a domain pool; the CSV is byte-identical to --jobs 1
   except the per-row wall_s timing column. *)
let batch_term =
  let scale =
    Arg.(value & opt float 0.2 & info [ "scale" ] ~doc:"Problem-size scale.")
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~doc:"CSV output file (default: stdout).")
  in
  let models_arg =
    Arg.(
      value & opt_all string []
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Sweep this communication model (repeatable); the special value \
             'all' sweeps every rung of the model ladder.  Default: the \
             macro-dataflow baseline only.")
  in
  let testbeds_arg =
    Arg.(
      value & opt_all string []
      & info [ "testbed"; "t" ] ~docv:"NAME"
          ~doc:"Restrict the sweep to this testbed (repeatable; default: all).")
  in
  let heuristics_arg =
    Arg.(
      value & opt_all string []
      & info [ "heuristic"; "H" ] ~docv:"NAME"
          ~doc:
            "Restrict the sweep to this heuristic (repeatable; default: every \
             scalable heuristic).")
  in
  let action scale output jobs stats models testbeds heuristics =
    if stats then begin
      O.Obs_counters.enable ();
      O.Obs_counters.reset ()
    end;
    let cfg = O.Config.paper ~scale () in
    let spec =
      try
        let spec = O.Batch.default_spec cfg in
        {
          spec with
          O.Batch.models =
            (match models with
            | [] -> spec.O.Batch.models
            | ms when List.mem "all" ms -> O.Comm_model.all
            | ms -> List.map O.Comm_model.of_name ms);
          testbeds =
            (match testbeds with
            | [] -> spec.O.Batch.testbeds
            | ts -> List.map O.Suite.find ts);
          heuristics =
            (match heuristics with
            | [] -> spec.O.Batch.heuristics
            | hs -> List.map O.Registry.find hs);
        }
      with Invalid_argument msg ->
        Printf.eprintf "schedcli: %s\n" msg;
        exit 2
    in
    let rows = O.Batch.run ~jobs cfg spec in
    let csv = O.Batch.to_csv rows in
    (match output with
    | None -> print_string csv
    | Some path ->
        O.Export.write_file path csv;
        Printf.printf "wrote %s (%d rows)\n" path (List.length rows));
    if stats then begin
      (* Worker-domain counters merged at the pool barrier: the totals
         below are independent of --jobs (the cram tests pin this). *)
      Format.printf "%a@." O.Obs_counters.pp (O.Obs_counters.snapshot ());
      O.Obs_counters.disable ()
    end
  in
  Term.(
    const action $ scale $ output_arg $ jobs_arg $ stats_arg $ models_arg
    $ testbeds_arg $ heuristics_arg)

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run the full heuristic x testbed x size grid (sharded over --jobs \
          domains) and emit CSV.")
    batch_term

let grid_cmd =
  Cmd.v
    (Cmd.info "grid"
       ~doc:"Run the full heuristic x testbed x size grid and emit CSV.")
    batch_term

let reproduce_cmd =
  let out_arg =
    Arg.(
      value & opt string "reproduction"
      & info [ "out" ] ~doc:"Output directory (created if missing).")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Problem-size scale.")
  in
  let action out scale =
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let cfg = O.Config.paper ~scale () in
    let path name = Filename.concat out name in
    (* 1. every experiment, one text report *)
    let buf = Buffer.create (1 lsl 16) in
    List.iter
      (fun f ->
        Buffer.add_string buf
          (Printf.sprintf "[%s] %s\npaper: %s\n\n%s\n" f.O.Figures.id
             f.O.Figures.title f.O.Figures.paper_claim (f.O.Figures.render cfg));
        Printf.printf "rendered %s\n%!" f.O.Figures.id)
      O.Figures.all;
    O.Export.write_file (path "experiments.txt") (Buffer.contents buf);
    (* 2. the raw grid as CSV *)
    let rows = O.Batch.run cfg (O.Batch.default_spec cfg) in
    O.Export.write_file (path "grid.csv") (O.Batch.to_csv rows);
    (* 3. one SVG Gantt + Chrome trace per testbed (small instances) *)
    List.iter
      (fun suite ->
        let n = max 20 suite.O.Suite.min_n in
        let g = suite.O.Suite.build ~n ~ccr:cfg.O.Config.ccr in
        let sched =
          O.Ilha.schedule
            ~params:
              (O.Params.with_b cfg.O.Config.params (Some suite.O.Suite.paper_b))
            cfg.O.Config.platform g
        in
        O.Export.write_file
          (path (Printf.sprintf "%s.svg" suite.O.Suite.name))
          (O.Svg.render sched);
        O.Export.write_file
          (path (Printf.sprintf "%s.trace.json" suite.O.Suite.name))
          (O.Export.to_chrome_trace sched))
      O.Suite.all;
    Printf.printf "wrote %s/{experiments.txt, grid.csv, <testbed>.svg, <testbed>.trace.json}\n"
      out
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:"Regenerate every experiment and write all artifacts to a directory.")
    Term.(const action $ out_arg $ scale)

let list_cmd =
  let action () =
    print_endline "testbeds:";
    List.iter (fun n -> print_endline ("  " ^ n)) O.Suite.names;
    print_endline "heuristics:";
    List.iter
      (fun e ->
        Printf.printf "  %-8s %s\n" e.O.Registry.name e.O.Registry.description)
      O.Registry.all;
    print_endline "models:";
    List.iter (fun m -> print_endline ("  " ^ O.Comm_model.name m)) O.Comm_model.all;
    print_endline "experiments:";
    List.iter
      (fun f -> Printf.printf "  %-11s %s\n" f.O.Figures.id f.O.Figures.title)
      O.Figures.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Enumerate testbeds, heuristics, models, experiments.")
    Term.(const action $ const ())

(* ---------------- scheduld: serve + client ---------------- *)

let socket_arg =
  Arg.(
    value & opt string "scheduld.sock"
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let port_arg =
  Arg.(
    value & opt (some int) None
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"Listen on loopback TCP $(docv) instead of a Unix socket.")

let endpoint_of socket port =
  match port with
  | Some p -> O.Scheduld.Tcp p
  | None -> O.Scheduld.Unix_path socket

let serve_cmd =
  let queue_arg =
    Arg.(
      value & opt int O.Scheduld.default_config.O.Scheduld.queue_cap
      & info [ "queue" ] ~doc:"Backlog capacity before shedding kicks in.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int O.Scheduld.default_config.O.Scheduld.max_batch
      & info [ "max-batch" ] ~doc:"Submissions coalesced into one re-plan.")
  in
  let window_arg =
    Arg.(
      value & opt float O.Scheduld.default_config.O.Scheduld.batch_window
      & info [ "batch-window" ] ~docv:"SECONDS"
          ~doc:"Upper bound on batching: a batch runs as soon as no more \
                input is waiting, and at the latest this long after its \
                first pending submission arrived.")
  in
  let budget_arg =
    Arg.(
      value & opt int O.Scheduld.default_config.O.Scheduld.replan_budget
      & info [ "replan-budget" ]
          ~doc:"Batches allowed before submissions get budget errors.")
  in
  let serve_jobs_arg =
    Arg.(
      value & opt jobs_conv 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            ("Schedule each batch's jobs across $(docv) domains \
              (placements are byte-identical at any value).  " ^ jobs_cap_doc))
  in
  let action socket port heuristic params jobs queue_cap max_batch
      batch_window replan_budget stats =
    try
      let config =
        {
          O.Scheduld.params;
          heuristic;
          jobs;
          max_batch;
          queue_cap;
          replan_budget;
          batch_window;
        }
      in
      let endpoint = endpoint_of socket port in
      if stats then begin
        O.Obs_counters.enable ();
        O.Obs_counters.reset ()
      end;
      let final =
        O.Scheduld.serve ~config
          ~ready:(fun () ->
            Printf.printf "scheduld: listening on %s (heuristic %s, %d jobs)\n%!"
              (O.Scheduld.endpoint_to_string endpoint)
              heuristic jobs)
          endpoint
          (O.Platform.paper_platform ())
      in
      Printf.printf
        "scheduld: served %d jobs in %d batches (%d submitted, %d shed, %d \
         failed, %d cancelled, %d errors)\n"
        final.O.Scheduld_proto.completed final.O.Scheduld_proto.batches
        final.O.Scheduld_proto.submitted final.O.Scheduld_proto.shed
        final.O.Scheduld_proto.failed final.O.Scheduld_proto.cancelled
        final.O.Scheduld_proto.errors;
      if stats then begin
        Format.printf "%a@." O.Obs_counters.pp (O.Obs_counters.snapshot ());
        O.Obs_counters.disable ()
      end
    with Invalid_argument msg | Failure msg ->
      Printf.eprintf "schedcli: %s\n" msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduld daemon: accept task-graph submissions over a \
          newline-delimited JSON protocol, coalesce them into batched \
          re-plans and stream placement events back (see doc/scheduld.md).")
    Term.(
      const action $ socket_arg $ port_arg $ heuristic_arg $ params_term
      $ serve_jobs_arg $ queue_arg $ max_batch_arg $ window_arg $ budget_arg
      $ stats_arg)

let client_connect socket port =
  try O.Scheduld_client.connect (endpoint_of socket port)
  with Failure msg ->
    Printf.eprintf "schedcli: %s\n" msg;
    exit 2

let die_error code msg =
  Printf.eprintf "schedcli: %s: %s\n"
    (O.Scheduld_proto.error_code_to_string code)
    msg;
  exit 2

let print_event (resp : O.Scheduld_proto.response) =
  match resp with
  | Accepted { id; queued } -> Printf.printf "accepted job %d (queued %d)\n" id queued
  | Placed { id; makespan; tasks; valid; fingerprint; batch; placements } ->
      Printf.printf "placed job %d: makespan %g tasks %d %s (batch of %d)\n" id
        makespan tasks
        (if valid then "valid" else "INVALID")
        batch;
      Printf.printf "fingerprint: %s\n" fingerprint;
      Option.iter
        (List.iter (fun (r : O.Scheduld_proto.placement_row) ->
             Printf.printf "  task %d -> P%d @ %g..%g\n" r.task r.proc r.start
               r.finish))
        placements
  | Done { id; makespan; missed } ->
      Printf.printf "done job %d: makespan %g%s\n" id makespan
        (if missed then " (deadline missed)" else "")
  | Failed { id; msg } -> Printf.printf "failed job %d: %s\n" id msg
  | Shed { id; by } -> Printf.printf "shed job %d in favour of job %d\n" id by
  | Cancelled_reply { id } -> Printf.printf "cancelled job %d\n" id
  | Status_reply jobs ->
      List.iter
        (fun (v : O.Scheduld_proto.job_view) ->
          Printf.printf "job %d: %s %s%s%s\n" v.id
            (O.Scheduld_proto.job_state_to_string v.state)
            v.spec
            (if v.priority = 0 then ""
             else Printf.sprintf " prio=%d" v.priority)
            (match v.makespan with
            | None -> ""
            | Some m -> Printf.sprintf " makespan %g" m))
        jobs
  | Stats_reply s ->
      Printf.printf "requests:    %d\n" s.requests;
      Printf.printf "submitted:   %d\n" s.submitted;
      Printf.printf "completed:   %d\n" s.completed;
      Printf.printf "cancelled:   %d\n" s.cancelled;
      Printf.printf "shed:        %d\n" s.shed;
      Printf.printf "failed:      %d\n" s.failed;
      Printf.printf "errors:      %d\n" s.errors;
      Printf.printf "batches:     %d\n" s.batches;
      Printf.printf "queue depth: %d\n" s.queue_depth;
      Printf.printf "queue peak:  %d\n" s.queue_peak;
      Printf.printf "clients:     %d\n" s.clients;
      (match (s.p50_ms, s.p99_ms) with
      | Some p50, Some p99 ->
          Printf.printf "latency:     p50 %.3f ms  p99 %.3f ms\n" p50 p99
      | _ -> Printf.printf "latency:     -\n")
  | Draining_reply { pending } -> Printf.printf "draining (%d pending)\n" pending
  | Watching -> print_endline "watching"
  | Bye -> print_endline "bye"
  | Pong -> print_endline "pong"
  | Error { code; msg } -> die_error code msg

let client_cmd =
  let submit_cmd =
    let job_arg =
      Arg.(
        value & opt (some string) None
        & info [ "job" ] ~docv:"SPEC"
            ~doc:"Job spec TESTBED:N[:CCR] (layered:L:W:N[:CCR] for a \
                  random layered DAG).")
    in
    let graph_arg =
      Arg.(
        value & opt (some file) None
        & info [ "graph" ] ~docv:"FILE"
            ~doc:"Submit the task graph in $(docv) (Graph_io text format) \
                  instead of a testbed spec.")
    in
    let heuristic_opt_arg =
      Arg.(
        value & opt (some string) None
        & info [ "heuristic"; "H" ]
            ~doc:"Registry heuristic (default: the daemon's).")
    in
    let model_opt_arg =
      Arg.(
        value & opt (some string) None
        & info [ "model" ] ~doc:"Communication model (default: the daemon's).")
    in
    let prio_arg =
      Arg.(
        value & opt int 0
        & info [ "prio" ] ~doc:"Shedding rank: higher survives longer.")
    in
    let deadline_arg =
      Arg.(
        value & opt (some float) None
        & info [ "deadline" ] ~docv:"D" ~doc:"Report a miss past this makespan.")
    in
    let placements_arg =
      Arg.(
        value & flag
        & info [ "placements" ] ~doc:"Print the full placement table.")
    in
    let action socket port job graph heuristic model prio deadline placements =
      let spec =
        match (job, graph) with
        | Some j, None -> O.Scheduld_proto.Testbed j
        | None, Some path ->
            O.Scheduld_proto.Inline
              (O.Graph_io.to_string (O.Graph_io.load path))
        | Some _, Some _ ->
            Printf.eprintf "schedcli: --job and --graph are exclusive\n";
            exit 2
        | None, None ->
            Printf.eprintf "schedcli: submit needs --job SPEC or --graph FILE\n";
            exit 2
      in
      let c = client_connect socket port in
      O.Scheduld_client.send c
        (O.Scheduld_proto.Submit
           { spec; heuristic; model; priority = prio; deadline; placements });
      let rec wait id =
        match O.Scheduld_client.recv c with
        | O.Scheduld_proto.Done _ as r when id >= 0 ->
            print_event r;
            O.Scheduld_client.close c
        | (O.Scheduld_proto.Failed _ | O.Scheduld_proto.Shed _) as r
          when id >= 0 ->
            print_event r;
            O.Scheduld_client.close c;
            exit 1
        | O.Scheduld_proto.Accepted { id; _ } as r ->
            print_event r;
            wait id
        | r ->
            print_event r;
            wait id
      in
      wait (-1)
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:"Submit a job and wait for its placement events.")
      Term.(
        const action $ socket_arg $ port_arg $ job_arg $ graph_arg
        $ heuristic_opt_arg $ model_opt_arg $ prio_arg $ deadline_arg
        $ placements_arg)
  in
  let simple name doc req ~wait_bye =
    let action socket port =
      let c = client_connect socket port in
      print_event (O.Scheduld_client.request c req);
      if wait_bye then begin
        let rec loop () =
          match O.Scheduld_client.recv c with
          | O.Scheduld_proto.Bye ->
              print_endline "bye";
              O.Scheduld_client.close c
          | r ->
              print_event r;
              loop ()
          | exception End_of_file -> ()
        in
        loop ()
      end
      else O.Scheduld_client.close c
    in
    Cmd.v (Cmd.info name ~doc) Term.(const action $ socket_arg $ port_arg)
  in
  let status_cmd =
    let id_arg =
      Arg.(
        value & opt (some int) None
        & info [ "id" ] ~doc:"Show one job instead of all.")
    in
    let action socket port id =
      let c = client_connect socket port in
      print_event (O.Scheduld_client.request c (O.Scheduld_proto.Status id));
      O.Scheduld_client.close c
    in
    Cmd.v
      (Cmd.info "status" ~doc:"List submitted jobs and their states.")
      Term.(const action $ socket_arg $ port_arg $ id_arg)
  in
  let cancel_cmd =
    let id_arg =
      Arg.(
        required & opt (some int) None
        & info [ "id" ] ~doc:"Job to cancel (queued jobs only).")
    in
    let action socket port id =
      let c = client_connect socket port in
      print_event (O.Scheduld_client.request c (O.Scheduld_proto.Cancel id));
      O.Scheduld_client.close c
    in
    Cmd.v
      (Cmd.info "cancel" ~doc:"Cancel a queued job.")
      Term.(const action $ socket_arg $ port_arg $ id_arg)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running scheduld daemon.")
    [
      submit_cmd;
      status_cmd;
      cancel_cmd;
      simple "watch"
        "Subscribe to every job's placement events until the daemon drains."
        O.Scheduld_proto.Watch ~wait_bye:true;
      simple "drain"
        "Ask the daemon to finish its backlog and shut down; waits for bye."
        O.Scheduld_proto.Drain ~wait_bye:true;
      simple "stats" "Print the daemon's service counters."
        O.Scheduld_proto.Stats ~wait_bye:false;
      simple "ping" "Check the daemon is alive." O.Scheduld_proto.Ping
        ~wait_bye:false;
    ]

let () =
  let info =
    Cmd.info "schedcli" ~version:"1.0.0"
      ~doc:"One-port task-graph scheduling with heterogeneous processors"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; figures_cmd; analyze_cmd; dot_cmd; robustness_cmd;
            online_cmd; export_cmd; autob_cmd; compare_cmd; batch_cmd;
            grid_cmd; reproduce_cmd; serve_cmd; client_cmd; list_cmd;
          ]))
