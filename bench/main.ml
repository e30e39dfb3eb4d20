(* Benchmark harness.

   Two halves, both driven from this one executable:

   1. {b Reproduction} — regenerate every table and figure of the paper
      (the same experiment registry the CLI exposes): the §2.3 example,
      the §4.4 toy, the §5.2 bound, Figures 7-12, the ablations and the
      NP-hardness checks.  Each report prints the paper's claim next to
      the measured series.

   2. {b Micro-benchmarks} — one Bechamel [Test.make] per figure/table,
      measuring the scheduling throughput of the heuristic pair that
      produces it (HEFT and ILHA at the figure's B on a mid-size
      instance), plus the engine-level hot path.

   Usage:
     dune exec bench/main.exe                  -- full-scale reproduction + micro
     dune exec bench/main.exe -- --quick       -- 1/5-scale problem sizes
     dune exec bench/main.exe -- --scale 0.4   -- custom scale
     dune exec bench/main.exe -- --only fig8 --only e1
     dune exec bench/main.exe -- --no-bechamel / --no-figures
     dune exec bench/main.exe -- --json FILE   -- machine-readable results
                                                  ("-" for stdout); see
                                                  doc/performance.md and the
                                                  committed BENCH_*.json
                                                  baselines *)

module O = Onesched

type options = {
  scale : float;
  only : string list;
  run_figures : bool;
  run_bechamel : bool;
  run_probes : bool;
  run_grid : bool;
  run_improvers : bool;
  run_models : bool;
  run_online : bool;
  run_scale : bool;
  run_serve : bool;
  run_dup : bool;
  scale_targets : int list;
  jobs : int;
  json : string option;
}

let parse_args () =
  let scale = ref 1.0 in
  let only = ref [] in
  let run_figures = ref true in
  let run_bechamel = ref true in
  let run_probes = ref true in
  let run_grid = ref true in
  let run_improvers = ref true in
  let run_models = ref true in
  let run_online = ref true in
  let run_scale = ref true in
  let run_serve = ref true in
  let run_dup = ref true in
  let scale_targets = ref [] in
  let jobs = ref (O.Pool.default_jobs ()) in
  let json = ref None in
  let rec eat = function
    | [] -> ()
    | "--quick" :: rest ->
        scale := 0.2;
        eat rest
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        eat rest
    | "--only" :: id :: rest ->
        only := id :: !only;
        eat rest
    | "--no-figures" :: rest ->
        run_figures := false;
        eat rest
    | "--no-bechamel" :: rest ->
        run_bechamel := false;
        eat rest
    | "--no-probes" :: rest ->
        run_probes := false;
        eat rest
    | "--no-grid" :: rest ->
        run_grid := false;
        eat rest
    | "--no-improvers" :: rest ->
        run_improvers := false;
        eat rest
    | "--no-models" :: rest ->
        run_models := false;
        eat rest
    | "--no-online" :: rest ->
        run_online := false;
        eat rest
    | "--no-scale" :: rest ->
        run_scale := false;
        eat rest
    | "--no-serve" :: rest ->
        run_serve := false;
        eat rest
    | "--no-dup" :: rest ->
        run_dup := false;
        eat rest
    | "--scale-tasks" :: v :: rest ->
        scale_targets := int_of_string v :: !scale_targets;
        eat rest
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        eat rest
    | "--json" :: file :: rest ->
        json := Some file;
        eat rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: main.exe [--quick] [--scale F] [--only ID]* [--no-figures] \
           [--no-bechamel] [--no-probes] [--no-grid] [--no-improvers] \
           [--no-models] [--no-online] [--no-scale] [--no-serve] [--no-dup] \
           [--scale-tasks N]* [--jobs N] [--json FILE]\n\
           experiment ids: %s\n"
          arg
          (String.concat ", " O.Figures.ids);
        exit 2
  in
  eat (List.tl (Array.to_list Sys.argv));
  {
    scale = !scale;
    only = List.rev !only;
    run_figures = !run_figures;
    run_bechamel = !run_bechamel;
    run_probes = !run_probes;
    run_grid = !run_grid;
    run_improvers = !run_improvers;
    run_models = !run_models;
    run_online = !run_online;
    run_scale = !run_scale;
    run_serve = !run_serve;
    run_dup = !run_dup;
    scale_targets =
      (match List.rev !scale_targets with
      | [] -> [ 100_000; 500_000; 1_000_000 ]
      | ts -> ts);
    jobs = max 1 !jobs;
    json = !json;
  }

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the paper's tables and figures                    *)
(* ------------------------------------------------------------------ *)

let run_figures opts =
  let cfg = O.Config.paper ~scale:opts.scale () in
  let figures =
    match opts.only with
    | [] -> O.Figures.all
    | ids -> List.map O.Figures.find ids
  in
  Printf.printf
    "=== reproduction (scale %.2f: problem sizes %s) ===\n\n" opts.scale
    (String.concat "," (List.map string_of_int cfg.O.Config.sizes));
  List.iter
    (fun f ->
      let t0 = Sys.time () in
      let body = f.O.Figures.render cfg in
      Printf.printf "[%s] %s   (%.1fs)\npaper: %s\n\n%s\n%!" f.O.Figures.id
        f.O.Figures.title (Sys.time () -. t0) f.O.Figures.paper_claim body)
    figures

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks (one Test.make per table/figure)   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bench_size = 40
let plat = O.Platform.paper_platform ()

let schedule_test name scheduler =
  Test.make ~name (Staged.stage (fun () -> ignore (scheduler ())))

(* One benchmark per figure: scheduling the figure's testbed (HEFT and
   ILHA at the figure's B) at a fixed mid-size instance, so the numbers
   compare the cost of producing each figure's data points. *)
let figure_benches =
  List.concat_map
    (fun (fig, testbed) ->
      let suite = O.Suite.find testbed in
      let g = suite.O.Suite.build ~n:bench_size ~ccr:10. in
      let b = suite.O.Suite.paper_b in
      [
        schedule_test
          (Printf.sprintf "%s/heft" fig)
          (fun () -> O.Heft.schedule plat g);
        schedule_test
          (Printf.sprintf "%s/ilha[b=%d]" fig b)
          (fun () -> O.Ilha.schedule ~params:(O.Params.make ~b ()) plat g);
      ])
    [
      ("fig7", "fork-join"); ("fig8", "lu"); ("fig9", "laplace");
      ("fig10", "ldmt"); ("fig11", "doolittle"); ("fig12", "stencil");
    ]

(* The supporting experiments: E1's exact fork solver, E3's load
   balancing, the Theorem 1/2 decision procedures, and the PERT replay
   behind the robustness table. *)
let support_benches =
  let fork_inst =
    Option.get (O.Fork_exact.of_graph (O.Fork.example_fig1 ()))
  in
  let partition = O.Two_partition.create [| 3; 5; 2; 7; 1 |] in
  let lu = O.Kernels.lu ~n:bench_size ~ccr:10. in
  let lu_sched = O.Heft.schedule plat lu in
  let pert = O.Pert.build lu_sched in
  [
    schedule_test "e1/fork-exact" (fun () ->
        O.Fork_exact.optimal_makespan ~max_procs:5 fork_inst);
    schedule_test "e3/load-balance" (fun () ->
        O.Load_balance.distribute plat ~n:38);
    schedule_test "reductions/thm1-decide" (fun () ->
        O.Fork_sched.decide (O.Fork_sched.reduce partition));
    schedule_test "reductions/thm2-decide" (fun () ->
        O.Comm_sched.decide (O.Comm_sched.reduce partition));
    schedule_test "robustness/pert-retime" (fun () ->
        O.Pert.retime pert
          ~task_duration:(fun _ d -> d *. 1.1)
          ~hop_duration:(fun _ d -> d));
    schedule_test "engine/upward-rank" (fun () -> O.Ranking.upward lu plat);
  ]

(* The evaluation hot path itself: a full HEFT run (its cost is the
   n_tasks x p evaluation grid) on the arena engine versus the same run
   forced through the pre-arena [Engine.Reference] evaluator.  The ratio
   of the two rows is the headline number tracked in BENCH_*.json. *)
let engine_benches =
  let lu = O.Kernels.lu ~n:bench_size ~ccr:10. in
  [
    schedule_test "engine/eval-grid" (fun () -> O.Heft.schedule plat lu);
    schedule_test "engine/eval-grid-ref" (fun () ->
        O.Engine.with_reference (fun () -> O.Heft.schedule plat lu));
  ]

(* The ready-set representation on its own: pushing and draining every
   task of the LU instance in priority order through the int-keyed
   monomorphic heap versus the generic closure-compared Pqueue over
   (rank, id) float pairs it replaced.  The ratio is the per-decision
   overhead the schedulers shed (boxing one float pair per push plus a
   closure call per sift step). *)
let heap_benches =
  let lu = O.Kernels.lu ~n:bench_size ~ccr:10. in
  let n = O.Graph.n_tasks lu in
  let ranks = O.Ranking.upward lu plat in
  let ord = O.Ranking.priority_order ranks in
  [
    schedule_test "engine/ready-heap" (fun () ->
        let h = O.Pqueue.Int_heap.create ~rank:ord () in
        for v = 0 to n - 1 do
          O.Pqueue.Int_heap.add h v
        done;
        while not (O.Pqueue.Int_heap.is_empty h) do
          ignore (O.Pqueue.Int_heap.pop_exn h : int)
        done);
    schedule_test "engine/ready-heap-ref" (fun () ->
        let compare (ra, va) (rb, vb) =
          match Float.compare (rb : float) ra with
          | 0 -> Int.compare va vb
          | c -> c
        in
        let h = O.Pqueue.create ~compare in
        for v = 0 to n - 1 do
          O.Pqueue.add h (ranks.(v), v)
        done;
        while not (O.Pqueue.is_empty h) do
          ignore (O.Pqueue.pop_exn h : float * int)
        done);
  ]

(* Runs the Bechamel suite, prints the human table (unless [echo] is
   off — [--json -] keeps stdout pure JSON), and returns the sorted
   [(name, ns_per_run)] rows for the JSON export. *)
let run_bechamel ~echo () =
  if echo then
    Printf.printf "=== micro-benchmarks (Bechamel, n = %d per testbed) ===\n%!"
      bench_size;
  let test =
    Test.make_grouped ~name:"onesched"
      (figure_benches @ support_benches @ engine_benches @ heap_benches)
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns_per_run =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns_per_run) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  let table = O.Table.create ~columns:[ "benchmark"; "time/run"; "runs/s" ] in
  let pretty_time ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ns) ->
      O.Table.add_row table
        [ name; pretty_time ns; Printf.sprintf "%.1f" (1e9 /. ns) ])
    rows;
  if echo then begin
    print_string (O.Table.to_string table);
    match
      ( List.assoc_opt "onesched/engine/eval-grid" rows,
        List.assoc_opt "onesched/engine/eval-grid-ref" rows )
    with
    | Some fast, Some slow when fast > 0. ->
        Printf.printf "\nengine/eval-grid speedup over reference: %.2fx\n%!"
          (slow /. fast)
    | _ -> ()
  end;
  rows

(* ------------------------------------------------------------------ *)
(* Part 3: engine-probe accounting via the obs counters                 *)
(* ------------------------------------------------------------------ *)

type probe_row = {
  testbed : string;
  heuristic : string;
  tasks : int;
  counters : O.Obs_counters.snapshot;
}

(* How much engine work each heuristic spends per task it schedules:
   (task, proc) evaluations (and how many candidates the lower-bound
   prune skipped), earliest-gap searches (single + joint) and tentative
   communication hops, counted by the obs layer and divided by the task
   count.  Returns the raw per-run counter snapshots for the JSON
   export. *)
let run_probes ~echo () =
  if echo then
    Printf.printf "\n=== engine probes per scheduled task (n = %d) ===\n%!"
      bench_size;
  O.Obs_counters.enable ();
  let table =
    O.Table.create
      ~columns:
        [ "testbed"; "heuristic"; "tasks"; "evals/task"; "pruned/task";
          "gap probes/task"; "tentative hops/task" ]
  in
  let rows = ref [] in
  List.iter
    (fun suite ->
      let g = suite.O.Suite.build ~n:bench_size ~ccr:10. in
      let tasks = O.Graph.n_tasks g in
      let probe name schedule =
        O.Obs_counters.reset ();
        ignore (schedule () : O.Schedule.t);
        let c = O.Obs_counters.snapshot () in
        rows :=
          { testbed = suite.O.Suite.name; heuristic = name; tasks; counters = c }
          :: !rows;
        let per x = Printf.sprintf "%.1f" (float_of_int x /. float_of_int tasks) in
        O.Table.add_row table
          [
            suite.O.Suite.name; name; string_of_int tasks;
            per c.O.Obs_counters.evaluations;
            per c.O.Obs_counters.pruned_evaluations;
            per
              (c.O.Obs_counters.gap_probes + c.O.Obs_counters.joint_gap_probes);
            per c.O.Obs_counters.tentative_hops;
          ]
      in
      probe "heft" (fun () -> O.Heft.schedule plat g);
      let b = suite.O.Suite.paper_b in
      probe
        (Printf.sprintf "ilha[b=%d]" b)
        (fun () -> O.Ilha.schedule ~params:(O.Params.make ~b ()) plat g))
    O.Suite.all;
  O.Obs_counters.disable ();
  if echo then print_string (O.Table.to_string table);
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Part 4: domain-parallel eval-grid wall-clock timing                  *)
(* ------------------------------------------------------------------ *)

type grid_timing = {
  grid_jobs : int;
  cores : int;
  grid_rows : int;
  serial_s : float;
  parallel_s : float;
  identical : bool;
}

(* Wall-clock time of the mid-size LU grid (every scalable heuristic at
   the run's scaled sizes), serial vs sharded over [opts.jobs] domains.
   The same sweep also checks the headline guarantee end to end: modulo
   the per-row wall_s timing column, the parallel rows must be
   byte-identical to the serial ones.  The serial/parallel ratio is the
   [grid_speedup] tracked in BENCH_*.json (bounded by physical cores —
   the [cores] field says what the recording machine had). *)
let run_grid_timing ~echo opts =
  let cfg = O.Config.paper ~scale:opts.scale () in
  let spec =
    { (O.Batch.default_spec cfg) with O.Batch.testbeds = [ O.Suite.find "lu" ] }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let serial_rows, serial_s = time (fun () -> O.Batch.run ~jobs:1 cfg spec) in
  let parallel_rows, parallel_s =
    time (fun () -> O.Batch.run ~jobs:opts.jobs cfg spec)
  in
  let strip rows =
    O.Batch.to_csv
      (List.map (fun r -> { r with O.Runner.wall_s = 0. }) rows)
  in
  let identical = strip serial_rows = strip parallel_rows in
  let t =
    {
      grid_jobs = opts.jobs;
      cores = Domain.recommended_domain_count ();
      grid_rows = List.length serial_rows;
      serial_s;
      parallel_s;
      identical;
    }
  in
  if echo then begin
    Printf.printf
      "\n=== eval grid wall clock (lu x %d sizes x %d heuristics) ===\n"
      (List.length spec.O.Batch.sizes)
      (List.length spec.O.Batch.heuristics);
    Printf.printf "jobs=1: %.3fs   jobs=%d: %.3fs   speedup %.2fx (%d cores)\n"
      serial_s opts.jobs parallel_s
      (if parallel_s > 0. then serial_s /. parallel_s else nan)
      t.cores;
    Printf.printf "rows identical to serial (wall_s excluded): %s\n%!"
      (if identical then "yes" else "NO")
  end;
  t

(* ------------------------------------------------------------------ *)
(* Part 5: incremental vs from-scratch improver throughput              *)
(* ------------------------------------------------------------------ *)

type improver_row = {
  imp_testbed : string;
  imp_n : int;
  imp_tasks : int;
  imp_steps : int;
  incremental_s : float;
  reference_s : float;
}

(* Simulated annealing prices one single-task reallocation per step.
   The incremental path ({!Anneal.improve}) rewinds the engine's commit
   log to the moved task and replays only the suffix; the from-scratch
   path ({!Anneal.Reference.improve}) rebuilds the whole schedule per
   step.  Both produce bit-identical results (the test suite proves it),
   so the steps/second ratio is pure kernel speedup — the headline
   [incremental_speedup] tracked in BENCH_*.json. *)
let run_improvers ~echo opts =
  let steps = 40 in
  let seed = 20020422 in
  let sizes =
    List.filter_map
      (fun n ->
        let n = int_of_float (float_of_int n *. opts.scale) in
        if n >= 10 then Some n else None)
      [ 100; 200; 300 ]
  in
  if echo then
    Printf.printf
      "\n=== improvers: incremental vs from-scratch anneal (%d steps) ===\n%!"
      steps;
  let table =
    O.Table.create
      ~columns:
        [ "testbed"; "n"; "tasks"; "incremental"; "reference"; "inc steps/s";
          "ref steps/s"; "speedup" ]
  in
  let rows =
    List.map
      (fun n ->
        let g = O.Kernels.lu ~n ~ccr:10. in
        let sched = O.Heft.schedule plat g in
        let params = { O.Anneal.default_params with O.Anneal.steps; seed } in
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let inc, incremental_s =
          time (fun () -> O.Anneal.improve ~params sched)
        in
        let slow, reference_s =
          time (fun () -> O.Anneal.Reference.improve ~params sched)
        in
        if inc.O.Anneal.final_makespan <> slow.O.Anneal.final_makespan then
          Printf.eprintf
            "WARNING: improvers disagree on lu n=%d: %g vs %g\n%!" n
            inc.O.Anneal.final_makespan slow.O.Anneal.final_makespan;
        let r =
          {
            imp_testbed = "lu";
            imp_n = n;
            imp_tasks = O.Graph.n_tasks g;
            imp_steps = steps;
            incremental_s;
            reference_s;
          }
        in
        let per_s t =
          if t > 0. then Printf.sprintf "%.1f" (float_of_int steps /. t)
          else "-"
        in
        O.Table.add_row table
          [
            r.imp_testbed; string_of_int n; string_of_int r.imp_tasks;
            Printf.sprintf "%.3fs" incremental_s;
            Printf.sprintf "%.3fs" reference_s;
            per_s incremental_s; per_s reference_s;
            (if incremental_s > 0. then
               Printf.sprintf "%.1fx" (reference_s /. incremental_s)
             else "-");
          ];
        r)
      sizes
  in
  if echo then print_string (O.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* Part 6: the communication-model ladder                               *)
(* ------------------------------------------------------------------ *)

type model_row = {
  mdl_name : string;
  mdl_wall_s : float;
  mdl_makespan : float;
  mdl_comms : int;
  mdl_phases : int;
  mdl_valid : bool;
}

(* HEFT on the mid-size LU instance under every rung of the ladder:
   what each refinement of the communication model costs to schedule
   and what it does to the makespan.  Every rung is re-validated, so
   the table doubles as a ladder smoke test on the bench machine. *)
let run_models ~echo () =
  if echo then
    Printf.printf "\n=== model ladder (heft on lu, n = %d) ===\n%!" bench_size;
  let g = O.Kernels.lu ~n:bench_size ~ccr:10. in
  let table =
    O.Table.create
      ~columns:[ "model"; "wall"; "makespan"; "comms"; "phases"; "valid" ]
  in
  let rows =
    List.map
      (fun model ->
        let params = O.Params.of_model model in
        let t0 = Unix.gettimeofday () in
        let sched = O.Heft.schedule ~params plat g in
        let wall = Unix.gettimeofday () -. t0 in
        let r =
          {
            mdl_name = O.Comm_model.name model;
            mdl_wall_s = wall;
            mdl_makespan = O.Schedule.makespan sched;
            mdl_comms = O.Schedule.n_comm_events sched;
            mdl_phases = O.Schedule.n_phases sched;
            mdl_valid = O.Validate.is_valid sched;
          }
        in
        O.Table.add_row table
          [
            r.mdl_name;
            Printf.sprintf "%.4fs" wall;
            Printf.sprintf "%.0f" r.mdl_makespan;
            string_of_int r.mdl_comms;
            string_of_int r.mdl_phases;
            (if r.mdl_valid then "yes" else "NO");
          ];
        r)
      O.Comm_model.all
  in
  if echo then print_string (O.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* Part 7: online rolling-horizon replan latency                        *)
(* ------------------------------------------------------------------ *)

type online_row = {
  onl_n : int;
  onl_tasks : int;
  onl_replans : int;  (* steady-state replans per run (initial plan excluded) *)
  onl_inc_p50_ms : float;
  onl_inc_p99_ms : float;
  onl_scr_p50_ms : float;
  onl_scr_p99_ms : float;
  onl_inc_total_s : float;
  onl_scr_total_s : float;
  onl_identical : bool;
}

(* The online driver under a crash + outage + rejoin trace against an LU
   job, timed twice: with the commit-log rewind (incremental) and with
   every re-plan rebuilt from scratch.  The initial plan is excluded
   (both paths build it the same way); the remaining steady-state
   re-plans give the p50/p99 latency columns and their total-time ratio
   is the [incremental_replan_speedup] tracked in BENCH_*.json.  The
   [identical] column checks the two paths agree on every intermediate
   and final makespan — the bit-identical guarantee the test suite
   proves in full. *)
let run_online ~echo opts =
  let repeats = 3 in
  let sizes =
    List.filter_map
      (fun n ->
        let n = int_of_float (float_of_int n *. opts.scale) in
        if n >= 10 then Some n else None)
      [ 100; 200; 300 ]
  in
  if echo then
    Printf.printf
      "\n=== online: steady-state replan latency, incremental vs \
       from-scratch (best of %d) ===\n%!"
      repeats;
  let table =
    O.Table.create
      ~columns:
        [ "testbed"; "n"; "tasks"; "replans"; "inc p50"; "inc p99";
          "scratch p50"; "scratch p99"; "speedup"; "identical" ]
  in
  let rows =
    List.map
      (fun n ->
        let g = O.Kernels.lu ~n ~ccr:10. in
        let nominal = O.Schedule.makespan (O.Heft.schedule plat g) in
        let job = O.Online_event.job ~ccr:10. "lu" n in
        let ev at kind = { O.Online_event.at; kind } in
        let events =
          [
            ev 0. (O.Online_event.Arrive job);
            ev (0.55 *. nominal) (O.Online_event.Crash 1);
            ev (0.65 *. nominal) (O.Online_event.Down 2);
            ev (0.72 *. nominal) (O.Online_event.Rejoin 2);
            ev (0.80 *. nominal) (O.Online_event.Crash 3);
            ev (0.90 *. nominal) (O.Online_event.Rejoin 3);
          ]
        in
        let run incremental =
          let config =
            { O.Online_driver.default_config with O.Online_driver.incremental }
          in
          let best = ref None in
          for _ = 1 to repeats do
            let o = O.Online_driver.run ~config plat events in
            let walls =
              match o.O.Online_driver.replans with
              | [] -> []
              | _initial :: steady ->
                  List.map (fun r -> r.O.Online_driver.wall_s) steady
            in
            let total = List.fold_left ( +. ) 0. walls in
            match !best with
            | Some (_, t, _) when t <= total -> ()
            | _ -> best := Some (o, total, walls)
          done;
          match !best with Some b -> b | None -> assert false
        in
        let inc_o, inc_total, inc_walls = run true in
        let scr_o, scr_total, scr_walls = run false in
        let makespans (o : O.Online_driver.outcome) =
          List.map
            (fun (r : O.Online_driver.replan_report) ->
              r.O.Online_driver.makespan)
            o.O.Online_driver.replans
        in
        let identical =
          inc_o.O.Online_driver.makespan = scr_o.O.Online_driver.makespan
          && makespans inc_o = makespans scr_o
        in
        let ms p = function
          | [] -> nan
          | walls -> 1000. *. O.Stats.percentile p walls
        in
        let r =
          {
            onl_n = n;
            onl_tasks = O.Graph.n_tasks g;
            onl_replans = List.length inc_walls;
            onl_inc_p50_ms = ms 50. inc_walls;
            onl_inc_p99_ms = ms 99. inc_walls;
            onl_scr_p50_ms = ms 50. scr_walls;
            onl_scr_p99_ms = ms 99. scr_walls;
            onl_inc_total_s = inc_total;
            onl_scr_total_s = scr_total;
            onl_identical = identical;
          }
        in
        let pms x = Printf.sprintf "%.2f ms" x in
        O.Table.add_row table
          [
            "lu"; string_of_int n; string_of_int r.onl_tasks;
            string_of_int r.onl_replans;
            pms r.onl_inc_p50_ms; pms r.onl_inc_p99_ms;
            pms r.onl_scr_p50_ms; pms r.onl_scr_p99_ms;
            (if inc_total > 0. then
               Printf.sprintf "%.1fx" (scr_total /. inc_total)
             else "-");
            (if identical then "yes" else "NO");
          ];
        r)
      sizes
  in
  if echo then print_string (O.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* Part 8: million-task scale                                           *)
(* ------------------------------------------------------------------ *)

type scale_row = {
  scl_heuristic : string;
  scl_n : int;
  scl_tasks : int;
  scl_edges : int;
  scl_build_s : float;
  scl_schedule_s : float;
  scl_tasks_per_s : float;
  scl_makespan : float;
  scl_peak_rss_kb : int;
}

(* Peak resident set in kB: the kernel's VmHWM high-water mark where
   /proc exists, otherwise the GC's top-of-heap high-water — a lower
   bound that still tracks the schedule arenas, which dominate at 10^6
   tasks.  Both are process-lifetime maxima, so within one bench run the
   column is non-decreasing and the last (largest) row is the ceiling
   that matters. *)
let peak_rss_kb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          let line = input_line ic in
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> kb
          | exception _ -> go ()
        in
        go ())
  in
  match from_proc () with
  | kb -> kb
  | exception _ ->
      (Gc.quick_stat ()).Gc.top_heap_words / 1024 * (Sys.word_size / 8)

(* Smallest LU size whose triangle holds at least [target] tasks
   (tasks = n (n - 1) / 2). *)
let lu_n_for ~target =
  let n =
    int_of_float
      (Float.ceil ((1. +. sqrt (1. +. (8. *. float_of_int target))) /. 2.))
  in
  max n 2

(* HEFT and ILHA on LU instances sized to [opts.scale_targets] tasks
   (default 10^5 / 5x10^5 / 10^6): wall-clock to build the CSR graph,
   wall-clock to schedule, scheduling throughput in tasks/second and the
   process RSS high-water. *)
let run_scale ~echo opts =
  let targets = List.sort_uniq compare opts.scale_targets in
  let suite = O.Suite.find "lu" in
  let b = suite.O.Suite.paper_b in
  if echo then
    Printf.printf
      "\n=== scale: heft / ilha[b=%d] on lu at %s tasks (ccr 10) ===\n%!" b
      (String.concat " / " (List.map string_of_int targets));
  let table =
    O.Table.create
      ~columns:
        [ "heuristic"; "n"; "tasks"; "edges"; "build"; "schedule"; "tasks/s";
          "peak rss" ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let ilha_params = O.Params.make ~b () in
  let rows =
    List.concat_map
      (fun target ->
        let n = lu_n_for ~target in
        let g, build_s = time (fun () -> O.Kernels.lu ~n ~ccr:10.) in
        let tasks = O.Graph.n_tasks g in
        let edges = O.Graph.n_edges g in
        let row name schedule =
          let sched, schedule_s = time schedule in
          let r =
            {
              scl_heuristic = name;
              scl_n = n;
              scl_tasks = tasks;
              scl_edges = edges;
              scl_build_s = build_s;
              scl_schedule_s = schedule_s;
              scl_tasks_per_s =
                (if schedule_s > 0. then float_of_int tasks /. schedule_s
                 else nan);
              scl_makespan = O.Schedule.makespan sched;
              scl_peak_rss_kb = peak_rss_kb ();
            }
          in
          O.Table.add_row table
            [
              name; string_of_int n; string_of_int tasks; string_of_int edges;
              Printf.sprintf "%.2fs" build_s;
              Printf.sprintf "%.2fs" schedule_s;
              Printf.sprintf "%.0f" r.scl_tasks_per_s;
              Printf.sprintf "%d MB" (r.scl_peak_rss_kb / 1024);
            ];
          r
        in
        (* Bind in sequence: list literals evaluate right to left, and
           the rows must run (and read the RSS high-water) in order. *)
        let heft_row = row "heft" (fun () -> O.Heft.schedule plat g) in
        let ilha_row =
          row
            (Printf.sprintf "ilha[b=%d]" b)
            (fun () -> O.Ilha.schedule ~params:ilha_params plat g)
        in
        [ heft_row; ilha_row ])
      targets
  in
  if echo then print_string (O.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* Part 9: scheduld offered load vs throughput                          *)
(* ------------------------------------------------------------------ *)

type serve_row = {
  srv_clients : int;
  srv_jobs : int;
  srv_batches : int;
  srv_wall_s : float;
  srv_jobs_per_s : float;
  srv_p50_ms : float;
  srv_p99_ms : float;
  srv_all_valid : bool;
}

let serve_jobs_per_client = 4

(* The layered generator's size is fixed by the L:W prefix (the N field
   is ignored for layered specs), so [--quick] shrinks the width. *)
let serve_spec opts =
  let width = max 8 (int_of_float (24. *. opts.scale)) in
  Printf.sprintf "layered:6:%d:%d" width (6 * width)

(* The daemon's pure core over an in-memory loopback (no sockets, so
   the numbers are the scheduler's, not the kernel's): [c] concurrent
   clients each submit [serve_jobs_per_client] layered jobs, then the
   backlog is flushed in coalesced batches of up to [c] jobs priced on
   the domain team.  Service latency (submit to first placement) comes
   from the daemon's own stats reply — the same percentiles a [Stats]
   request reports in production. *)
let run_serve ~echo opts =
  let spec = serve_spec opts in
  let client_counts =
    if opts.scale < 1. then [ 10; 50 ] else [ 10; 25; 50; 100 ]
  in
  if echo then
    Printf.printf
      "\n=== serve: scheduld loopback, %d x %s per client (heft, %d jobs) \
       ===\n%!"
      serve_jobs_per_client spec opts.jobs;
  let table =
    O.Table.create
      ~columns:
        [ "clients"; "jobs"; "batches"; "wall"; "jobs/s"; "p50"; "p99";
          "valid" ]
  in
  let rows =
    List.map
      (fun c ->
        let config =
          {
            O.Scheduld.default_config with
            O.Scheduld.jobs = opts.jobs;
            max_batch = c;
            queue_cap = c * serve_jobs_per_client;
            replan_budget = max_int;
          }
        in
        let t = O.Scheduld.create ~config plat in
        let clients = List.init c (fun _ -> O.Scheduld.connect t) in
        let line =
          O.Scheduld_proto.print_request
            (O.Scheduld_proto.Submit
               {
                 O.Scheduld_proto.spec = O.Scheduld_proto.Testbed spec;
                 heuristic = None;
                 model = None;
                 priority = 0;
                 deadline = None;
                 placements = false;
               })
        in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to serve_jobs_per_client do
          List.iter (fun cid -> O.Scheduld.input t ~client:cid line) clients
        done;
        while O.Scheduld.pending t > 0 do
          ignore (O.Scheduld.flush t)
        done;
        let wall_s = Unix.gettimeofday () -. t0 in
        let all_valid = ref true in
        let placed = ref 0 in
        List.iter
          (fun (_, l) ->
            match O.Scheduld_proto.response_of_line l with
            | Ok (O.Scheduld_proto.Placed { valid; _ }) ->
                incr placed;
                if not valid then all_valid := false
            | Ok _ | Error _ -> ())
          (O.Scheduld.take_outputs t);
        let st = O.Scheduld.stats t in
        O.Scheduld.shutdown t;
        let total = c * serve_jobs_per_client in
        if !placed <> total then all_valid := false;
        let ms = function Some x -> x | None -> nan in
        let r =
          {
            srv_clients = c;
            srv_jobs = total;
            srv_batches = st.O.Scheduld_proto.batches;
            srv_wall_s = wall_s;
            srv_jobs_per_s =
              (if wall_s > 0. then float_of_int total /. wall_s else nan);
            srv_p50_ms = ms st.O.Scheduld_proto.p50_ms;
            srv_p99_ms = ms st.O.Scheduld_proto.p99_ms;
            srv_all_valid = !all_valid;
          }
        in
        O.Table.add_row table
          [
            string_of_int c; string_of_int total;
            string_of_int r.srv_batches;
            Printf.sprintf "%.2fs" wall_s;
            Printf.sprintf "%.0f" r.srv_jobs_per_s;
            Printf.sprintf "%.1f ms" r.srv_p50_ms;
            Printf.sprintf "%.1f ms" r.srv_p99_ms;
            (if r.srv_all_valid then "yes" else "NO");
          ];
        r)
      client_counts
  in
  if echo then print_string (O.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* Part 10: task duplication — HEFT vs heft-dup on FORK-JOIN            *)
(* ------------------------------------------------------------------ *)

type dup_row = {
  dup_n : int;
  dup_tasks : int;
  dup_heft_makespan : float;
  dup_dup_makespan : float;
  dup_copies : int;
  dup_heft_wall_s : float;
  dup_dup_wall_s : float;
  dup_heft_valid : bool;
  dup_dup_valid : bool;
}

(* FORK-JOIN at ccr 1 is duplication's home turf: every join edge
   crosses processors, so replicating the fork root next to its children
   deletes whole bottleneck communications.  The makespan ratio
   (heft-dup / heft, < 1 is a win) is the headline number tracked in
   BENCH_*.json; at ccr 10 the copies no longer pay and heft-dup falls
   back to plain HEFT. *)
let run_dup ~echo () =
  if echo then
    Printf.printf
      "\n=== duplication: HEFT vs heft-dup, FORK-JOIN ccr 1 ===\n%!";
  let table =
    O.Table.create
      ~columns:
        [ "n"; "tasks"; "heft"; "heft-dup"; "ratio"; "copies"; "wall";
          "valid" ]
  in
  let tb = O.Suite.find "fork-join" in
  let params = O.Params.with_dup_limit O.Params.default 1 in
  let rows =
    List.map
      (fun n ->
        let g = tb.O.Suite.build ~n ~ccr:1. in
        let time f =
          let t0 = Unix.gettimeofday () in
          let s = f () in
          (s, Unix.gettimeofday () -. t0)
        in
        let heft, heft_s = time (fun () -> O.Heft.schedule ~params plat g) in
        let dup, dup_s = time (fun () -> O.Heft_dup.schedule ~params plat g)
        in
        let valid s = O.Validate.check s = Ok () in
        let r =
          {
            dup_n = n;
            dup_tasks = O.Graph.n_tasks g;
            dup_heft_makespan = O.Schedule.makespan heft;
            dup_dup_makespan = O.Schedule.makespan dup;
            dup_copies = O.Schedule.n_dup_copies dup;
            dup_heft_wall_s = heft_s;
            dup_dup_wall_s = dup_s;
            dup_heft_valid = valid heft;
            dup_dup_valid = valid dup;
          }
        in
        O.Table.add_row table
          [
            string_of_int n; string_of_int r.dup_tasks;
            Printf.sprintf "%g" r.dup_heft_makespan;
            Printf.sprintf "%g" r.dup_dup_makespan;
            Printf.sprintf "%.3f" (r.dup_dup_makespan /. r.dup_heft_makespan);
            string_of_int r.dup_copies;
            Printf.sprintf "%.3fs" (heft_s +. dup_s);
            (if r.dup_heft_valid && r.dup_dup_valid then "yes" else "NO");
          ];
        r)
      [ 100; 300; 500 ]
  in
  if echo then print_string (O.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled writer (no JSON dependency): the schema is documented in
   doc/performance.md and the committed BENCH_*.json baselines follow
   it. *)
let emit_json opts ~bech_rows ~probe_rows ~grid ~improver_rows ~model_rows
    ~online_rows ~scale ~serve_rows ~dup_rows file =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let json_float x =
    if Float.is_nan x then "null" else Printf.sprintf "%.3f" x
  in
  add "{\n";
  (* /2: the problem-size factor moved from "scale" to "figure_scale";
     "scale" is now the million-task throughput object. *)
  add "  \"schema\": \"onesched-bench/2\",\n";
  add "  \"bench_size\": %d,\n" bench_size;
  add "  \"figure_scale\": %s,\n" (json_float opts.scale);
  add "  \"bechamel\": [\n";
  List.iteri
    (fun i (name, ns) ->
      add "    {\"name\": %S, \"ns_per_run\": %s}%s\n" name (json_float ns)
        (if i = List.length bech_rows - 1 then "" else ","))
    bech_rows;
  add "  ],\n";
  (match
     ( List.assoc_opt "onesched/engine/eval-grid" bech_rows,
       List.assoc_opt "onesched/engine/eval-grid-ref" bech_rows )
   with
  | Some fast, Some slow when fast > 0. && not (Float.is_nan slow) ->
      add "  \"eval_grid_speedup\": %s,\n" (json_float (slow /. fast))
  | _ -> ());
  (match grid with
  | Some (g : grid_timing) ->
      add
        "  \"grid\": {\"jobs\": %d, \"cores\": %d, \"rows\": %d, \
         \"serial_s\": %s, \"parallel_s\": %s, \"grid_speedup\": %s, \
         \"identical\": %b},\n"
        g.grid_jobs g.cores g.grid_rows (json_float g.serial_s)
        (json_float g.parallel_s)
        (json_float
           (if g.parallel_s > 0. then g.serial_s /. g.parallel_s else nan))
        g.identical
  | None -> ());
  if improver_rows <> [] then begin
    add "  \"improvers\": {\"cores\": %d, \"rows\": [\n"
      (Domain.recommended_domain_count ());
    List.iteri
      (fun i r ->
        let per_s t =
          if t > 0. then json_float (float_of_int r.imp_steps /. t)
          else "null"
        in
        add
          "    {\"testbed\": %S, \"n\": %d, \"tasks\": %d, \"steps\": %d, \
           \"incremental_s\": %s, \"reference_s\": %s, \
           \"incremental_steps_per_s\": %s, \"reference_steps_per_s\": %s, \
           \"incremental_speedup\": %s}%s\n"
          r.imp_testbed r.imp_n r.imp_tasks r.imp_steps
          (json_float r.incremental_s)
          (json_float r.reference_s)
          (per_s r.incremental_s) (per_s r.reference_s)
          (json_float
             (if r.incremental_s > 0. then r.reference_s /. r.incremental_s
              else nan))
          (if i = List.length improver_rows - 1 then "" else ","))
      improver_rows;
    add "  ]},\n"
  end;
  if model_rows <> [] then begin
    add "  \"models\": {\"cores\": %d, \"testbed\": \"lu\", \"heuristic\": \
         \"heft\", \"rows\": [\n"
      (Domain.recommended_domain_count ());
    List.iteri
      (fun i r ->
        add
          "    {\"model\": %S, \"wall_s\": %s, \"makespan\": %s, \"comms\": \
           %d, \"phases\": %d, \"valid\": %b}%s\n"
          r.mdl_name
          (Printf.sprintf "%.4f" r.mdl_wall_s)
          (json_float r.mdl_makespan) r.mdl_comms r.mdl_phases r.mdl_valid
          (if i = List.length model_rows - 1 then "" else ","))
      model_rows;
    add "  ]},\n"
  end;
  if online_rows <> [] then begin
    add "  \"online\": {\"cores\": %d, \"testbed\": \"lu\", \"heuristic\": \
         %S, \"rows\": [\n"
      (Domain.recommended_domain_count ())
      O.Online_driver.default_config.O.Online_driver.heuristic;
    List.iteri
      (fun i r ->
        add
          "    {\"n\": %d, \"tasks\": %d, \"replans\": %d, \
           \"incremental_p50_ms\": %s, \"incremental_p99_ms\": %s, \
           \"scratch_p50_ms\": %s, \"scratch_p99_ms\": %s, \
           \"incremental_total_s\": %s, \"scratch_total_s\": %s, \
           \"incremental_replan_speedup\": %s, \"identical\": %b}%s\n"
          r.onl_n r.onl_tasks r.onl_replans
          (json_float r.onl_inc_p50_ms)
          (json_float r.onl_inc_p99_ms)
          (json_float r.onl_scr_p50_ms)
          (json_float r.onl_scr_p99_ms)
          (json_float r.onl_inc_total_s)
          (json_float r.onl_scr_total_s)
          (json_float
             (if r.onl_inc_total_s > 0. then
                r.onl_scr_total_s /. r.onl_inc_total_s
              else nan))
          r.onl_identical
          (if i = List.length online_rows - 1 then "" else ","))
      online_rows;
    add "  ]},\n"
  end;
  (match scale with
  | Some rows when rows <> [] ->
      add
        "  \"scale\": {\"cores\": %d, \"testbed\": \"lu\", \"ccr\": 10, \
         \"rows\": [\n"
        (Domain.recommended_domain_count ());
      List.iteri
        (fun i r ->
          add
            "    {\"heuristic\": %S, \"n\": %d, \"tasks\": %d, \"edges\": %d, \
             \"build_s\": %s, \"schedule_s\": %s, \"tasks_per_s\": %s, \
             \"makespan\": %s, \"peak_rss_kb\": %d}%s\n"
            r.scl_heuristic r.scl_n r.scl_tasks r.scl_edges
            (json_float r.scl_build_s)
            (json_float r.scl_schedule_s)
            (json_float r.scl_tasks_per_s)
            (json_float r.scl_makespan)
            r.scl_peak_rss_kb
            (if i = List.length rows - 1 then "" else ","))
        rows;
      add "  ]},\n"
  | _ -> ());
  if serve_rows <> [] then begin
    add
      "  \"serve\": {\"cores\": %d, \"sched_jobs\": %d, \"spec\": %S, \
       \"jobs_per_client\": %d, \"heuristic\": \"heft\", \"rows\": [\n"
      (Domain.recommended_domain_count ())
      opts.jobs (serve_spec opts) serve_jobs_per_client;
    List.iteri
      (fun i r ->
        add
          "    {\"clients\": %d, \"jobs\": %d, \"batches\": %d, \"wall_s\": \
           %s, \"jobs_per_s\": %s, \"p50_ms\": %s, \"p99_ms\": %s, \
           \"all_valid\": %b}%s\n"
          r.srv_clients r.srv_jobs r.srv_batches
          (json_float r.srv_wall_s)
          (json_float r.srv_jobs_per_s)
          (json_float r.srv_p50_ms)
          (json_float r.srv_p99_ms)
          r.srv_all_valid
          (if i = List.length serve_rows - 1 then "" else ","))
      serve_rows;
    add "  ]},\n"
  end;
  if dup_rows <> [] then begin
    add
      "  \"duplication\": {\"testbed\": \"fork-join\", \"ccr\": 1, \
       \"dup_limit\": 1, \"rows\": [\n";
    List.iteri
      (fun i r ->
        add
          "    {\"n\": %d, \"tasks\": %d, \"heft_makespan\": %s, \
           \"heft_dup_makespan\": %s, \"makespan_ratio\": %s, \"copies\": \
           %d, \"heft_wall_s\": %s, \"heft_dup_wall_s\": %s, \
           \"heft_valid\": %b, \"heft_dup_valid\": %b}%s\n"
          r.dup_n r.dup_tasks
          (json_float r.dup_heft_makespan)
          (json_float r.dup_dup_makespan)
          (json_float (r.dup_dup_makespan /. r.dup_heft_makespan))
          r.dup_copies
          (Printf.sprintf "%.4f" r.dup_heft_wall_s)
          (Printf.sprintf "%.4f" r.dup_dup_wall_s)
          r.dup_heft_valid r.dup_dup_valid
          (if i = List.length dup_rows - 1 then "" else ","))
      dup_rows;
    add "  ]},\n"
  end;
  add "  \"probes\": [\n";
  List.iteri
    (fun i r ->
      let c = r.counters in
      add
        "    {\"testbed\": %S, \"heuristic\": %S, \"tasks\": %d, \
         \"evaluations\": %d, \"pruned_evaluations\": %d, \
         \"route_cache_hits\": %d, \"gap_probes\": %d, \
         \"joint_gap_probes\": %d, \"tentative_hops\": %d, \"commits\": \
         %d}%s\n"
        r.testbed r.heuristic r.tasks c.O.Obs_counters.evaluations
        c.O.Obs_counters.pruned_evaluations c.O.Obs_counters.route_cache_hits
        c.O.Obs_counters.gap_probes c.O.Obs_counters.joint_gap_probes
        c.O.Obs_counters.tentative_hops c.O.Obs_counters.commits
        (if i = List.length probe_rows - 1 then "" else ","))
    probe_rows;
  add "  ]\n";
  add "}\n";
  if file = "-" then print_string (Buffer.contents buf)
  else begin
    let oc = open_out file in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "\nwrote %s\n%!" file
  end

let () =
  let opts = parse_args () in
  (* [--json -] reserves stdout for the JSON document. *)
  let echo = opts.json <> Some "-" in
  if opts.run_figures && echo then run_figures opts;
  let probe_rows =
    if opts.run_probes && opts.only = [] then run_probes ~echo () else []
  in
  let bech_rows =
    if opts.run_bechamel && opts.only = [] then run_bechamel ~echo () else []
  in
  let grid =
    if opts.run_grid && opts.only = [] then Some (run_grid_timing ~echo opts)
    else None
  in
  let improver_rows =
    if opts.run_improvers && opts.only = [] then run_improvers ~echo opts
    else []
  in
  let model_rows =
    if opts.run_models && opts.only = [] then run_models ~echo () else []
  in
  let online_rows =
    if opts.run_online && opts.only = [] then run_online ~echo opts else []
  in
  let scale =
    if opts.run_scale && opts.only = [] then Some (run_scale ~echo opts)
    else None
  in
  let serve_rows =
    if opts.run_serve && opts.only = [] then run_serve ~echo opts else []
  in
  let dup_rows =
    if opts.run_dup && opts.only = [] then run_dup ~echo () else []
  in
  Option.iter
    (emit_json opts ~bech_rows ~probe_rows ~grid ~improver_rows ~model_rows
       ~online_rows ~scale ~serve_rows ~dup_rows)
    opts.json
