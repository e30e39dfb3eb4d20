open Prelude
module Registry = Heuristics.Registry
module Params = Heuristics.Params
module Suite = Testbeds.Suite
module Schedule = Sched.Schedule
module Comm_model = Commmodel.Comm_model

type t = {
  id : string;
  title : string;
  paper_claim : string;
  render : Config.t -> string;
}

let heft = Registry.find "heft"

(* ------------------------------------------------------------------ *)
(* E1: the serialization example of §2.3 (Figure 1)                     *)
(* ------------------------------------------------------------------ *)

let e1_render (cfg : Config.t) =
  let g = Testbeds.Fork.example_fig1 () in
  let plat = Platform.homogeneous ~p:5 ~link_cost:1. in
  let heft_makespan model =
    Schedule.makespan
      (Heuristics.Heft.schedule ~params:(Params.with_model cfg.params model)
         plat g)
  in
  (* The paper's "same allocation" argument: keep the macro-dataflow
     mapping (v0, v1, v2 on P0; one remaining child per processor) under
     the one-port model. *)
  let same_alloc_makespan =
    let sched =
      Schedule.create ~graph:g ~platform:plat ~model:Comm_model.one_port ()
    in
    let engine =
      Heuristics.Engine.create ~policy:cfg.params.Params.policy sched
    in
    List.iteri
      (fun i (task, proc) ->
        ignore i;
        Heuristics.Engine.schedule_on engine ~task ~proc)
      [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 2); (5, 3); (6, 4) ];
    Schedule.makespan sched
  in
  let optimal_one_port =
    match Heuristics.Fork_exact.of_graph g with
    | Some inst -> Heuristics.Fork_exact.optimal_makespan ~max_procs:5 inst
    | None -> nan
  in
  let table =
    Table.create ~columns:[ "scenario"; "makespan"; "paper" ]
  in
  Table.add_row table
    [ "macro-dataflow, HEFT"; Printf.sprintf "%g" (heft_makespan Comm_model.macro_dataflow); "3" ];
  Table.add_row table
    [ "one-port, macro-dataflow allocation"; Printf.sprintf "%g" same_alloc_makespan; ">= 6" ];
  Table.add_row table
    [ "one-port, HEFT"; Printf.sprintf "%g" (heft_makespan (Config.model cfg)); "-" ];
  Table.add_row table
    [ "one-port, exact optimum"; Printf.sprintf "%g" optimal_one_port; "5" ];
  Table.to_string table

(* ------------------------------------------------------------------ *)
(* E2: the toy example of §4.4 (Figures 3-4)                            *)
(* ------------------------------------------------------------------ *)

let e2_render (cfg : Config.t) =
  let g = Testbeds.Toy.graph () in
  let plat = Platform.homogeneous ~p:2 ~link_cost:1. in
  let model = Comm_model.one_port in
  let run name sched buf =
    let m = Sched.Metrics.compute sched in
    Buffer.add_string buf
      (Printf.sprintf "%s: makespan %g, %d communications\n%s\n" name
         m.Sched.Metrics.makespan m.Sched.Metrics.n_comm_events
         (Sched.Gantt.render ~width:60 sched))
  in
  let buf = Buffer.create 1024 in
  let base = Params.with_model cfg.params model in
  run "HEFT" (Heuristics.Heft.schedule ~params:base plat g) buf;
  run "ILHA (B=8)"
    (Heuristics.Ilha.schedule ~params:(Params.with_b base (Some 8)) plat g)
    buf;
  Buffer.add_string buf
    "paper (Fig. 4): ILHA ends earlier than HEFT and sends 2 messages \
     instead of 4\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* E3: the speedup bound of §5.2                                        *)
(* ------------------------------------------------------------------ *)

let e3_render (cfg : Config.t) =
  let plat = cfg.platform in
  let chunk = Heuristics.Load_balance.perfect_chunk plat in
  let counts = Heuristics.Load_balance.distribute plat ~n:chunk in
  let table = Table.create ~columns:[ "quantity"; "measured"; "paper" ] in
  Table.add_row table
    [ "perfect-balance chunk M"; string_of_int chunk; "38" ];
  Table.add_row table
    [
      "distribution of 38 tasks";
      String.concat "," (Array.to_list (Array.map string_of_int counts));
      "5,5,5,5,5,3,3,3,2,2";
    ];
  Table.add_row table
    [
      "round time of that distribution";
      Printf.sprintf "%g" (Heuristics.Load_balance.round_time plat counts);
      "30";
    ];
  Table.add_row table
    [
      "speedup bound";
      Printf.sprintf "%.2f" (Platform.speedup_bound plat);
      "7.60 (= 228/30)";
    ];
  Table.to_string table

(* ------------------------------------------------------------------ *)
(* Figures 7-12: HEFT vs ILHA on the six testbeds                       *)
(* ------------------------------------------------------------------ *)

let series_render (cfg : Config.t) ~testbed =
  let suite = Suite.find testbed in
  let b = suite.Suite.paper_b in
  let table =
    Table.create
      ~columns:
        [ "n"; "tasks"; "HEFT speedup"; "ILHA speedup"; "gain %";
          "HEFT comms"; "ILHA comms" ]
  in
  let heft_curve = ref [] and ilha_curve = ref [] in
  List.iter
    (fun n ->
      let n = max n suite.Suite.min_n in
      let h = Runner.run cfg ~testbed:suite ~n ~heuristic:heft () in
      let i =
        Runner.run cfg ~testbed:suite ~n ~heuristic:(Registry.find "ilha")
          ~params:(Params.with_b cfg.params (Some b))
          ()
      in
      heft_curve := (float_of_int n, h.Runner.speedup) :: !heft_curve;
      ilha_curve := (float_of_int n, i.Runner.speedup) :: !ilha_curve;
      Table.add_row table
        [
          string_of_int n;
          string_of_int
            (Taskgraph.Graph.n_tasks
               (suite.Suite.build ~n ~ccr:cfg.Config.ccr));
          Printf.sprintf "%.3f" h.Runner.speedup;
          Printf.sprintf "%.3f" i.Runner.speedup;
          Printf.sprintf "%+.1f"
            (100. *. ((i.Runner.speedup /. h.Runner.speedup) -. 1.));
          string_of_int h.Runner.n_comms;
          string_of_int i.Runner.n_comms;
        ])
    cfg.sizes;
  let chart =
    if List.length !heft_curve >= 2 then
      Plot.render ~y_from_zero:false ~x_label:"problem size n"
        ~y_label:"speedup"
        [ ("Heft", List.rev !heft_curve); ("Ilha", List.rev !ilha_curve) ]
    else ""
  in
  Printf.sprintf "testbed %s, B = %d, c = %g, model = %s\n%s\n%s" testbed b
    cfg.ccr
    (Comm_model.name (Config.model cfg))
    (Table.to_string table)
    chart

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let smallest_size (cfg : Config.t) suite =
  max (List.fold_left min max_int cfg.sizes) suite.Suite.min_n

let sweep_b_render (cfg : Config.t) =
  let bs = [ 1; 2; 4; 8; 10; 20; 38; 76 ] in
  let table =
    Table.create
      ~columns:("testbed" :: "n" :: List.map (fun b -> Printf.sprintf "B=%d" b) bs)
  in
  List.iter
    (fun suite ->
      let n = smallest_size cfg suite in
      let cells =
        List.map
          (fun b ->
            let r =
              Runner.run cfg ~testbed:suite ~n ~heuristic:(Registry.find "ilha")
                ~params:(Params.with_b cfg.params (Some b))
                ()
            in
            Printf.sprintf "%.3f" r.Runner.speedup)
          bs
      in
      Table.add_row table (suite.Suite.name :: string_of_int n :: cells))
    Suite.all;
  "ILHA speedup as a function of the chunk size B\n" ^ Table.to_string table

let models_render (cfg : Config.t) =
  let suite = Suite.find "lu" in
  let n = smallest_size cfg suite in
  let table =
    Table.create ~columns:[ "model"; "heuristic"; "makespan"; "speedup"; "comms" ]
  in
  List.iter
    (fun model ->
      List.iter
        (fun (entry, b) ->
          let params =
            Params.with_b (Params.with_model cfg.params model) b
          in
          let r =
            Runner.run cfg ~testbed:suite ~n ~heuristic:entry ~params ()
          in
          Table.add_row table
            [
              Comm_model.name model;
              r.Runner.heuristic;
              Printf.sprintf "%.0f" r.Runner.makespan;
              Printf.sprintf "%.3f" r.Runner.speedup;
              string_of_int r.Runner.n_comms;
            ])
        [ (heft, None); (Registry.find "ilha", Some suite.Suite.paper_b) ])
    Comm_model.all;
  Printf.sprintf "communication-model ablation (LU, n = %d)\n%s" n
    (Table.to_string table)

let insertion_render (cfg : Config.t) =
  let table =
    Table.create
      ~columns:[ "testbed"; "n"; "insertion speedup"; "append speedup" ]
  in
  List.iter
    (fun suite ->
      let n = smallest_size cfg suite in
      let run policy =
        Runner.run cfg ~testbed:suite ~n ~heuristic:heft
          ~params:(Params.with_policy cfg.Config.params policy)
          ()
      in
      let ins = run Heuristics.Engine.Insertion in
      let app = run Heuristics.Engine.Append in
      Table.add_row table
        [
          suite.Suite.name;
          string_of_int n;
          Printf.sprintf "%.3f" ins.Runner.speedup;
          Printf.sprintf "%.3f" app.Runner.speedup;
        ])
    Suite.all;
  "HEFT slot policy ablation (one-port model)\n" ^ Table.to_string table

let tournament_render (cfg : Config.t) =
  let table =
    Table.create
      ~columns:("heuristic" :: List.map (fun s -> s.Suite.name) Suite.all)
  in
  List.iter
    (fun entry ->
      let cells =
        List.map
          (fun suite ->
            let n = min 50 (smallest_size cfg suite) in
            let n = max n suite.Suite.min_n in
            if (not entry.Registry.scalable) && n > 60 then "skip"
            else begin
              let r = Runner.run cfg ~testbed:suite ~n ~heuristic:entry () in
              Printf.sprintf "%.3f" r.Runner.speedup
            end)
          Suite.all
      in
      Table.add_row table (entry.Registry.name :: cells))
    Registry.all;
  "speedups of all heuristics, one-port model (sizes capped at 50)\n"
  ^ Table.to_string table

let robustness_render (cfg : Config.t) =
  (* DOOLITTLE is where HEFT and ILHA pick visibly different schedules, so
     the degradation comparison is informative. *)
  let suite = Suite.find "doolittle" in
  let n = smallest_size cfg suite in
  let g = suite.Suite.build ~n ~ccr:cfg.ccr in
  let table =
    Table.create
      ~columns:[ "heuristic"; "jitter"; "nominal"; "mean"; "p95"; "worst" ]
  in
  List.iter
    (fun (entry, params) ->
      let sched = entry.Registry.scheduler params cfg.platform g in
      List.iter
        (fun jitter ->
          let rng = Rng.create ~seed:cfg.seed in
          let s = Simkit.Robustness.monte_carlo sched rng ~jitter ~trials:50 in
          Table.add_row table
            [
              entry.Registry.name;
              Printf.sprintf "%.0f%%" (100. *. jitter);
              Printf.sprintf "%.0f" s.Simkit.Robustness.nominal;
              Printf.sprintf "%.0f" s.Simkit.Robustness.mean;
              Printf.sprintf "%.0f" s.Simkit.Robustness.p95;
              Printf.sprintf "%.0f" s.Simkit.Robustness.worst;
            ])
        [ 0.1; 0.3; 0.5 ])
    [
      (heft, cfg.params);
      ( Registry.find "ilha",
        Params.with_b cfg.params (Some suite.Suite.paper_b) );
    ];
  Printf.sprintf
    "schedule robustness under execution-time jitter (DOOLITTLE, n = %d)\n%s"
    n (Table.to_string table)

let ranking_render (cfg : Config.t) =
  (* §4.1 derives a specific averaging rule for ranks; measure it against
     the classic arithmetic mean and an optimistic fastest-processor
     pricing, with mapping decisions held identical (min EFT). *)
  let table =
    Table.create
      ~columns:[ "testbed"; "n"; "balanced (par.4.1)"; "arithmetic"; "optimistic" ]
  in
  List.iter
    (fun suite ->
      let n = max suite.Suite.min_n (min 60 (smallest_size cfg suite)) in
      let g = suite.Suite.build ~n ~ccr:cfg.ccr in
      let speedup averaging =
        let sched =
          Heuristics.Heft.schedule
            ~params:(Params.with_averaging cfg.params averaging)
            cfg.platform g
        in
        (Sched.Metrics.compute sched).Sched.Metrics.speedup
      in
      Table.add_row table
        [
          suite.Suite.name;
          string_of_int n;
          Printf.sprintf "%.3f" (speedup Heuristics.Ranking.Balanced);
          Printf.sprintf "%.3f" (speedup Heuristics.Ranking.Arithmetic);
          Printf.sprintf "%.3f" (speedup Heuristics.Ranking.Optimistic);
        ])
    Suite.all;
  "HEFT speedup under different rank-averaging rules (par.4.1)\n"
  ^ Table.to_string table

let contention_render (cfg : Config.t) =
  (* §2.2 vs §2.3 made measurable: on sparse routed topologies, link
     contention (Sinnen-Sousa) and port contention (one-port) both bite;
     on the paper's fully-connected platform only ports do. *)
  (* cheap communication (c = 1) so placements spread across the machine
     and routes actually share links *)
  let suite = Suite.find "laplace" in
  let n = smallest_size cfg suite in
  let g = suite.Suite.build ~n ~ccr:1. in
  let platforms =
    [
      ("fully-connected-8", Platform.homogeneous ~p:8 ~link_cost:1.);
      ("star-8", Platform.star ~cycle_times:(Array.make 8 1.) ~spoke_cost:1. ());
      ("ring-8", Platform.ring ~cycle_times:(Array.make 8 1.) ~link_cost:1. ());
      ( "grid-2x4",
        Platform.grid2d ~rows:2 ~cols:4 ~cycle_time:1. ~link_cost:1. () );
    ]
  in
  let models =
    [
      Comm_model.macro_dataflow;
      Comm_model.link_contention;
      Comm_model.one_port;
      Comm_model.with_link_contention Comm_model.one_port;
    ]
  in
  let table =
    Table.create
      ~columns:("platform" :: List.map Comm_model.name models)
  in
  List.iter
    (fun (name, plat) ->
      let cells =
        List.map
          (fun model ->
            let sched =
              Heuristics.Heft.schedule
                ~params:(Params.with_model cfg.params model)
                plat g
            in
            Printf.sprintf "%.0f" (Schedule.makespan sched))
          models
      in
      Table.add_row table (name :: cells))
    platforms;
  Printf.sprintf
    "HEFT makespans for %s (n = %d, c = 1) across topologies and contention \
     models\n%s"
    suite.Suite.name n (Table.to_string table)

let random_render (cfg : Config.t) =
  (* §6 asks for "more extensive experimental validation": speedups over
     random layered DAGs rather than the six structured kernels. *)
  let rng = Rng.create ~seed:cfg.seed in
  let trials = 12 in
  let graphs =
    List.init trials (fun i ->
        let rng = Rng.split rng in
        ignore i;
        let g =
          Taskgraph.Generators.layered rng ~layers:12 ~width:12 ~edge_prob:0.35
            ~max_weight:9 ~max_data:0
        in
        (* apply the paper's ccr rule to the random weights *)
        Taskgraph.Graph.with_data g ~f:(fun e ->
            cfg.ccr *. Taskgraph.Graph.weight g e.Taskgraph.Graph.src))
  in
  let entries =
    [ heft; Registry.find "ilha"; Registry.find "cpop"; Registry.find "bil";
      Registry.find "pct" ]
  in
  let table =
    Table.create ~columns:[ "heuristic"; "mean speedup"; "stdev"; "best"; "worst"; "wins" ]
  in
  let speedups =
    List.map
      (fun entry ->
        ( entry.Registry.name,
          List.map
            (fun g -> (Runner.run_graph cfg ~heuristic:entry g).Runner.speedup)
            graphs ))
      entries
  in
  let wins name =
    (* count graphs where this heuristic achieves the maximum speedup *)
    List.length
      (List.filteri
         (fun i _ ->
           let mine = List.nth (List.assoc name speedups) i in
           List.for_all (fun (_, l) -> List.nth l i <= mine +. 1e-9) speedups)
         graphs)
  in
  List.iter
    (fun (name, l) ->
      Table.add_row table
        [
          name;
          Printf.sprintf "%.3f" (Stats.mean l);
          Printf.sprintf "%.3f" (Stats.stdev l);
          Printf.sprintf "%.3f" (Stats.maximum l);
          Printf.sprintf "%.3f" (Stats.minimum l);
          string_of_int (wins name);
        ])
    speedups;
  Printf.sprintf
    "speedups over %d random layered DAGs (12 levels x <=12 tasks, c = %g, \
     one-port, paper platform)\n%s"
    trials cfg.ccr (Table.to_string table)

let refine_render (cfg : Config.t) =
  let table =
    Table.create
      ~columns:
        [ "testbed"; "n"; "heuristic"; "makespan"; "hill-climbed"; "annealed";
          "best gain %" ]
  in
  List.iter
    (fun suite ->
      (* improvers rebuild the whole schedule per move, so cap the size
         regardless of the configured scale *)
      let n = max suite.Suite.min_n (min 30 (smallest_size cfg suite)) in
      let g = suite.Suite.build ~n ~ccr:cfg.ccr in
      List.iter
        (fun (entry, params) ->
          let sched = entry.Registry.scheduler params cfg.platform g in
          let hill = Heuristics.Refine.improve ~max_rounds:2 ~max_moves:10 sched in
          let annealed =
            Heuristics.Anneal.improve
              ~params:
                { Heuristics.Anneal.default_params with
                  Heuristics.Anneal.steps = 150; seed = cfg.seed }
              sched
          in
          let initial = hill.Heuristics.Refine.initial_makespan in
          let best =
            min hill.Heuristics.Refine.final_makespan
              annealed.Heuristics.Anneal.final_makespan
          in
          Table.add_row table
            [
              suite.Suite.name;
              string_of_int n;
              entry.Registry.name;
              Printf.sprintf "%.0f" initial;
              Printf.sprintf "%.0f" hill.Heuristics.Refine.final_makespan;
              Printf.sprintf "%.0f" annealed.Heuristics.Anneal.final_makespan;
              Printf.sprintf "%+.1f" (100. *. (1. -. (best /. initial)));
            ])
        [
          (heft, cfg.params);
          ( Registry.find "ilha",
            Params.with_b cfg.params (Some suite.Suite.paper_b) );
        ])
    Suite.all;
  "allocation improvers on top of each heuristic (§6's improvement \
   direction): hill climbing vs simulated annealing\n"
  ^ Table.to_string table

let reductions_render (cfg : Config.t) =
  let rng = Rng.create ~seed:cfg.seed in
  let trials = 30 in
  let fork_agree = ref 0 and fork_constructive = ref 0 and fork_yes = ref 0 in
  let comm_agree = ref 0 and comm_constructive = ref 0 and comm_yes = ref 0 in
  for _ = 1 to trials do
    let inst =
      Complexity.Two_partition.random rng ~n:(2 * Rng.int_in rng 1 2)
        ~max_item:9
    in
    (* Theorem 1: FORK-SCHED.  The exact equivalence is with the SHIFTED
       items M + a_i + 1 (see Fork_sched); a balanced solution of the
       original instance is one sufficient certificate. *)
    let red = Complexity.Fork_sched.reduce inst in
    let balanced = Complexity.Two_partition.solve_balanced inst in
    let decided = Complexity.Fork_sched.decide red in
    if
      decided
      = Complexity.Two_partition.is_solvable
          (Complexity.Fork_sched.shifted_instance red)
    then incr fork_agree;
    if decided then incr fork_yes;
    (match balanced with
    | Some a1 ->
        let sched = Complexity.Fork_sched.schedule_of_partition red ~a1 in
        if
          Sched.Validate.is_valid sched
          && Schedule.makespan sched <= red.Complexity.Fork_sched.time_bound +. 1e-6
        then incr fork_constructive
    | None -> ());
    (* Theorem 2: COMM-SCHED *)
    let red2 = Complexity.Comm_sched.reduce inst in
    let solution = Complexity.Two_partition.solve inst in
    let decided2 = Complexity.Comm_sched.decide red2 in
    if decided2 = (solution <> None) then incr comm_agree;
    if decided2 then incr comm_yes;
    match solution with
    | Some a1 ->
        let sched = Complexity.Comm_sched.schedule_of_partition red2 ~a1 in
        if
          Sched.Validate.is_valid sched
          && Schedule.makespan sched <= red2.Complexity.Comm_sched.time_bound +. 1e-6
        then incr comm_constructive
    | None -> ()
  done;
  let table =
    Table.create
      ~columns:[ "reduction"; "instances"; "yes"; "decide agrees"; "constructions valid" ]
  in
  Table.add_row table
    [
      "Thm 1 (2-PART -> FORK-SCHED)";
      string_of_int trials;
      string_of_int !fork_yes;
      string_of_int !fork_agree;
      string_of_int !fork_constructive;
    ];
  Table.add_row table
    [
      "Thm 2 (2-PART -> COMM-SCHED)";
      string_of_int trials;
      string_of_int !comm_yes;
      string_of_int !comm_agree;
      string_of_int !comm_constructive;
    ];
  "NP-hardness reduction checks (decide via exact enumeration; Thm 1's \
   literal construction encodes 2-PARTITION of the SHIFTED items M+a_i+1 \
   — see EXPERIMENTS.md)\n"
  ^ Table.to_string table

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let figure ~id ~title ~paper_claim render = { id; title; paper_claim; render }

let series_claims =
  [
    ("fig7", "fork-join", "HEFT = ILHA; speedup ~1.58, near the wt/c+1 = 1.6 bound");
    ("fig8", "lu", "ILHA ~5.0 vs HEFT ~4.5 at n=500; gap widens with n (B=4)");
    ("fig9", "laplace", "ILHA ~5.6; ~10% over HEFT (B=38)");
    ("fig10", "ldmt", "ILHA ~4.9; ~10% over HEFT (B=20)");
    ("fig11", "doolittle", "ILHA ~4.4; ~10% over HEFT (B=20)");
    ("fig12", "stencil", "speedup decreases with n; ILHA ~2.7 vs HEFT ~2.4 (B=38)");
  ]

let all =
  [
    figure ~id:"e1" ~title:"Serialization example (§2.3, Fig. 1)"
      ~paper_claim:"macro-dataflow 3; one-port with that allocation >= 6; optimum 5"
      e1_render;
    figure ~id:"e2" ~title:"Toy example (§4.4, Figs. 3-4)"
      ~paper_claim:"ILHA beats HEFT and cuts communications from 4 to 2"
      e2_render;
    figure ~id:"e3" ~title:"Load balance and speedup bound (§5.2)"
      ~paper_claim:"M = 38; 38 tasks in 30 time units; bound 228/30 = 7.6"
      e3_render;
  ]
  @ List.map
      (fun (id, testbed, claim) ->
        figure ~id
          ~title:(Printf.sprintf "HEFT vs ILHA on %s (%s)" testbed id)
          ~paper_claim:claim
          (fun cfg -> series_render cfg ~testbed))
      series_claims
  @ [
      figure ~id:"sweep-b" ~title:"Chunk-size sweep (§5.3)"
        ~paper_claim:"best B: LU 4, LAPLACE/STENCIL/FORK-JOIN 38, DOOLITTLE/LDMt 20"
        sweep_b_render;
      figure ~id:"models" ~title:"Communication-model ablation (§2.3 variants)"
        ~paper_claim:"one-port variants are harder than macro-dataflow"
        models_render;
      figure ~id:"insertion" ~title:"Slot-policy ablation (§4.3)"
        ~paper_claim:"insertion-based slots never hurt"
        insertion_render;
      figure ~id:"tournament" ~title:"All heuristics (§4.2 comparison set)"
        ~paper_claim:"HEFT and ILHA give the best results"
        tournament_render;
      figure ~id:"robustness" ~title:"Jitter robustness (extension)"
        ~paper_claim:"(not in paper; extension)"
        robustness_render;
      figure ~id:"refine" ~title:"Allocation local search (extension, §6)"
        ~paper_claim:"(not in paper; §6 notes room for improvement)"
        refine_render;
      figure ~id:"ranking" ~title:"Rank-averaging ablation (§4.1)"
        ~paper_claim:"ranks average execution at p/sum(1/t) and links harmonically"
        ranking_render;
      figure ~id:"contention" ~title:"Topology & contention (§2.2 vs §2.3)"
        ~paper_claim:"communication-aware models diverge once links are shared"
        contention_render;
      figure ~id:"random" ~title:"Random-DAG validation (extension, §6)"
        ~paper_claim:"(§6 calls for more extensive experimental validation)"
        random_render;
      figure ~id:"reductions" ~title:"NP-hardness reductions (§3, Appendix)"
        ~paper_claim:"schedule exists iff 2-PARTITION solvable (Thm 1's construction actually encodes the shifted items)"
        reductions_render;
    ]

let ids = List.map (fun f -> f.id) all

let find id =
  match List.find_opt (fun f -> f.id = id) all with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Figures.find: unknown experiment %S (known: %s)" id
           (String.concat ", " ids))
