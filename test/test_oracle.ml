(* Exhaustive tiny-instance oracle.

   On instances small enough to brute-force (≤ 6 tasks, 2-3 processors,
   one-port model) the repo can check its heuristics against ground
   truth rather than against each other:

   - the oracle is {!Search.best_makespan}, which explores every
     interleaving of (ready-task × processor) choices — a superset of
     the schedules any allocation can induce under the engine's greedy
     communication rule;
   - enumerating all p^n allocations and committing each in topological
     order must always produce a Validate-clean schedule and never beat
     the oracle (topological orders are among the interleavings the
     oracle explores);
   - every registered heuristic must produce a valid schedule with
     makespan ≥ the oracle's;
   - on fork graphs over a homogeneous unit platform, {!Fork_exact}'s
     closed-form enumeration must agree with the oracle exactly. *)

module O = Onesched
open Util

let eps = 1e-9

let tiny_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    let* n = int_range 2 6 in
    let* p = int_range 2 3 in
    let* hetero = bool in
    return (seed, n, p, hetero))

let build_tiny (seed, n, p, hetero) =
  let rng = O.Rng.create ~seed in
  let g =
    O.Generators.erdos_renyi rng ~n ~edge_prob:0.4 ~max_weight:3 ~max_data:3
  in
  let plat =
    if hetero then
      O.Platform.fully_connected
        ~cycle_times:(Array.init p (fun i -> float_of_int (i + 1)))
        ~link_cost:1. ()
    else O.Platform.homogeneous ~p ~link_cost:1.
  in
  (g, plat)

let print_tiny (seed, n, p, hetero) =
  Printf.sprintf "tiny(seed=%d,n=%d,p=%d,hetero=%b)" seed n p hetero

(* Commit every task in deterministic topological order onto a fixed
   allocation; communications place greedily exactly as in every
   heuristic. *)
let schedule_allocation ?(model = O.Comm_model.one_port) g plat alloc =
  let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
  let engine = O.Engine.create sched in
  Array.iter
    (fun v -> O.Engine.schedule_on engine ~task:v ~proc:alloc.(v))
    (O.Graph.topological_order g);
  sched

(* All p^n allocations as digit vectors. *)
let iter_allocations ~n ~p f =
  let alloc = Array.make n 0 in
  let rec go v = if v = n then f alloc
    else
      for q = 0 to p - 1 do
        alloc.(v) <- q;
        go (v + 1)
      done
  in
  go 0

let allocation_tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
      (QCheck2.Test.make ~count:20
         ~name:"every allocation is valid and none beats the oracle"
         ~print:print_tiny tiny_gen (fun params ->
           let g, plat = build_tiny params in
           let n = O.Graph.n_tasks g and p = O.Platform.p plat in
           let oracle = O.Search.best_makespan plat g in
           let ok = ref true in
           iter_allocations ~n ~p (fun alloc ->
               let sched = schedule_allocation g plat alloc in
               (match O.Validate.check sched with
               | Ok () -> ()
               | Error es ->
                   Printf.printf "INVALID allocation: %s\n" (List.hd es);
                   ok := false);
               if O.Schedule.makespan sched < oracle -. eps then begin
                 Printf.printf "allocation beats oracle: %g < %g\n"
                   (O.Schedule.makespan sched) oracle;
                 ok := false
               end);
           !ok));
  ]

let heuristic_tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
      (QCheck2.Test.make ~count:25
         ~name:"every registered heuristic is valid and ≥ the oracle"
         ~print:print_tiny tiny_gen (fun params ->
           let g, plat = build_tiny params in
           let oracle = O.Search.best_makespan plat g in
           List.for_all
             (fun (e : O.Registry.entry) ->
               let sched = e.O.Registry.scheduler O.Params.default plat g in
               match O.Validate.check sched with
               | Error es ->
                   Printf.printf "%s INVALID: %s\n" e.O.Registry.name
                     (List.hd es);
                   false
               | Ok () ->
                   let m = O.Schedule.makespan sched in
                   if O.Schedule.has_dups sched then begin
                     (* duplication may legitimately beat the single-copy
                        oracle, but must never lose to plain HEFT *)
                     let heft = O.Heft.schedule plat g in
                     if m > O.Schedule.makespan heft +. eps then begin
                       Printf.printf "%s loses to plain HEFT: %g > %g\n"
                         e.O.Registry.name m (O.Schedule.makespan heft);
                       false
                     end
                     else true
                   end
                   else if m < oracle -. eps then begin
                     Printf.printf "%s beats the oracle: %g < %g\n"
                       e.O.Registry.name m oracle;
                     false
                   end
                   else true)
             O.Registry.all));
  ]

(* The oracle argument carries over to the new regimes unchanged: both
   the brute-force search and every heuristic drive the same engine, so
   on BSP and latency+overhead rungs too the search's makespan lower
   bounds anything an allocation or a heuristic can produce. *)
let regime_models =
  [ O.Comm_model.bsp ~g:1. ~l:2.; O.Comm_model.latency_overhead ~o:1. ~l:1. ]

let regime_tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
      (QCheck2.Test.make ~count:10
         ~name:"BSP/latency rungs: allocations and heuristics respect the oracle"
         ~print:print_tiny tiny_gen (fun tparams ->
           let g, plat = build_tiny tparams in
           let n = O.Graph.n_tasks g and p = O.Platform.p plat in
           List.for_all
             (fun model ->
               let params = O.Params.of_model model in
               let oracle = O.Search.best_makespan ~params plat g in
               let ok = ref true in
               iter_allocations ~n ~p (fun alloc ->
                   let sched = schedule_allocation ~model g plat alloc in
                   (match O.Validate.check sched with
                   | Ok () -> ()
                   | Error es ->
                       Printf.printf "INVALID allocation under %s: %s\n"
                         (O.Comm_model.name model) (List.hd es);
                       ok := false);
                   if O.Schedule.makespan sched < oracle -. eps then begin
                     Printf.printf "allocation beats oracle under %s: %g < %g\n"
                       (O.Comm_model.name model)
                       (O.Schedule.makespan sched) oracle;
                     ok := false
                   end);
               List.iter
                 (fun (e : O.Registry.entry) ->
                   let sched = e.O.Registry.scheduler params plat g in
                   match O.Validate.check sched with
                   | Error es ->
                       Printf.printf "%s INVALID under %s: %s\n"
                         e.O.Registry.name (O.Comm_model.name model)
                         (List.hd es);
                       ok := false
                   | Ok () ->
                       let m = O.Schedule.makespan sched in
                       if m < oracle -. eps then begin
                         Printf.printf "%s beats the oracle under %s: %g < %g\n"
                           e.O.Registry.name (O.Comm_model.name model) m oracle;
                         ok := false
                       end)
                 O.Registry.all;
               !ok)
             regime_models));
  ]

let fork_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    let* children = int_range 1 4 in
    let* p = int_range 2 3 in
    return (seed, children, p))

let fork_tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
      (QCheck2.Test.make ~count:40
         ~name:"fork_exact matches the oracle on fork graphs"
         ~print:(fun (seed, c, p) -> Printf.sprintf "fork(seed=%d,c=%d,p=%d)" seed c p)
         fork_gen (fun (seed, children, p) ->
           let rng = O.Rng.create ~seed in
           let child_weights =
             Array.init children (fun _ -> float_of_int (O.Rng.int_in rng 1 4))
           in
           let child_data =
             Array.init children (fun _ -> float_of_int (O.Rng.int_in rng 0 4))
           in
           let g =
             O.Fork.of_weights
               ~parent_weight:(float_of_int (O.Rng.int_in rng 0 3))
               ~child_weights ~child_data
           in
           let plat = O.Platform.homogeneous ~p ~link_cost:1. in
           let inst = Option.get (O.Fork_exact.of_graph g) in
           let exact = O.Fork_exact.optimal_makespan ~max_procs:p inst in
           let oracle = O.Search.best_makespan plat g in
           Prelude.Stats.fequal exact oracle));
  ]

(* The undo-based DFS widened the guard from 8 to 10 tasks and counts
   bound-pruned nodes. Chains keep the ready set narrow, so a 10-task
   instance near the guard stays fast. *)
let search_tests =
  [
    Alcotest.test_case "search accepts a 10-task chain" `Quick (fun () ->
        let g =
          O.Graph.create ~name:"chain10" ~weights:(Array.make 10 1.)
            ~edges:(List.init 9 (fun i -> (i, i + 1, 1.)))
            ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Search.best_schedule plat g in
        (match O.Validate.check sched with
        | Ok () -> ()
        | Error es -> Alcotest.fail (List.hd es));
        (* a unit chain on a homogeneous platform runs sequentially *)
        check_float "optimal chain makespan" 10. (O.Schedule.makespan sched));
    Alcotest.test_case "search rejects 11 tasks" `Quick (fun () ->
        let g =
          O.Graph.create ~name:"chain11" ~weights:(Array.make 11 1.)
            ~edges:(List.init 10 (fun i -> (i, i + 1, 1.)))
            ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        Alcotest.check_raises "guard"
          (Invalid_argument "Search.best_schedule: more than 10 tasks")
          (fun () -> ignore (O.Search.best_makespan plat g)));
    Alcotest.test_case "bound pruning is counted" `Quick (fun () ->
        let tb = O.Suite.find "fork-join" in
        let g = tb.O.Suite.build ~n:4 ~ccr:0.5 in
        let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
        O.Obs_counters.enable ();
        O.Obs_counters.reset ();
        Fun.protect ~finally:O.Obs_counters.disable (fun () ->
            ignore (O.Search.best_makespan plat g);
            check_bool "search_pruned_nodes > 0" true
              (O.Obs_counters.(get (snapshot ()) search_pruned_nodes)
              > 0)));
  ]

let suite =
  allocation_tests @ heuristic_tests @ regime_tests @ fork_tests @ search_tests
