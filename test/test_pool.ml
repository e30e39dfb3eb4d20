(* The determinism-proving harness for the domain-parallel sweeps.

   The contract under test: for any job count, (1) Pool.map is a plain
   order-preserving map that propagates worker exceptions, (2)
   Batch.run produces the very same rows in the very same order, (3)
   monte_carlo produces bit-identical statistics, and (4) the Obs
   counter totals merged at the pool barrier equal the serial totals.
   Everything runs at jobs ∈ {1, 2, 4, 8} against the jobs = 1
   baseline. *)

module O = Onesched
open Util

let jobs_axis = [ 2; 4; 8 ]

(* ---------------- Pool.map / Pool.iter ---------------- *)

let pool_unit_tests =
  [
    Alcotest.test_case "iter covers every index exactly once" `Quick (fun () ->
        List.iter
          (fun jobs ->
            let n = 1013 in
            let hits = Array.make n 0 in
            O.Pool.iter ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
            Array.iteri
              (fun i h -> check_int (Printf.sprintf "index %d" i) 1 h)
              hits)
          (1 :: jobs_axis));
    Alcotest.test_case "iter on an empty and singleton range" `Quick (fun () ->
        O.Pool.iter ~jobs:4 0 (fun _ -> Alcotest.fail "called on empty");
        let hit = ref 0 in
        O.Pool.iter ~jobs:4 1 (fun i ->
            check_int "index" 0 i;
            incr hit);
        check_int "single call" 1 !hit);
    Alcotest.test_case "exceptions propagate from any worker" `Quick (fun () ->
        List.iter
          (fun jobs ->
            match O.Pool.iter ~jobs 256 (fun i -> if i = 97 then failwith "boom")
            with
            | () -> Alcotest.fail "exception swallowed"
            | exception Failure msg -> Alcotest.(check string) "msg" "boom" msg)
          (1 :: jobs_axis));
    Alcotest.test_case "invalid arguments are rejected" `Quick (fun () ->
        Alcotest.check_raises "jobs = 0" (Invalid_argument "Pool.iter: jobs < 1")
          (fun () -> O.Pool.iter ~jobs:0 4 ignore);
        Alcotest.check_raises "negative count"
          (Invalid_argument "Pool.iter: negative count") (fun () ->
            O.Pool.iter ~jobs:2 (-1) ignore));
    Alcotest.test_case "default_jobs is positive and capped" `Quick (fun () ->
        let j = O.Pool.default_jobs () in
        check_bool "positive" true (j >= 1);
        check_bool "capped" true (j <= 8));
  ]

let pool_map_tests =
  [
    qtest ~count:50 "map preserves order and values for every jobs"
      QCheck2.Gen.(list_size (int_bound 200) (int_bound 10_000))
      (fun l ->
        let expect = List.map (fun x -> (2 * x) + 1) l in
        List.for_all
          (fun jobs -> O.Pool.map ~jobs (fun x -> (2 * x) + 1) l = expect)
          (1 :: jobs_axis));
    qtest ~count:20 "map propagates the failing element's exception"
      QCheck2.Gen.(int_range 0 99)
      (fun bad ->
        List.for_all
          (fun jobs ->
            match
              O.Pool.map ~jobs
                (fun i -> if i = bad then raise Exit else i)
                (List.init 100 Fun.id)
            with
            | _ -> false
            | exception Exit -> true)
          jobs_axis);
  ]

(* ---------------- Batch.run rows ---------------- *)

(* Zero the one timing field so equality is over the deterministic
   payload — the CSV-diff cram test does the same with cut(1). *)
let strip_row (r : O.Runner.row) = { r with O.Runner.wall_s = 0.; obs = None }

(* Small random slices of the real grid: 1-2 testbeds, 1-2 sizes, a
   random subset of the scalable heuristics. *)
let spec_gen =
  QCheck2.Gen.(
    let* tb_mask = int_range 1 63 in
    let* size_a = int_range 4 10 in
    let* size_b = int_range 4 10 in
    let* heur_mask = int_range 1 31 in
    return (tb_mask, size_a, size_b, heur_mask))

let build_spec (tb_mask, size_a, size_b, heur_mask) =
  let mask_filter mask l =
    List.filteri (fun i _ -> (mask lsr (i mod 6)) land 1 = 1 || i = mask mod List.length l) l
  in
  let cfg = O.Config.with_sizes (O.Config.paper ()) [ size_a; size_b ] in
  let scalable =
    List.filter (fun e -> e.O.Registry.scalable) O.Registry.all
  in
  let spec =
    {
      O.Batch.heuristics = mask_filter heur_mask scalable;
      testbeds = mask_filter tb_mask O.Suite.all;
      sizes = cfg.O.Config.sizes;
      models = [ O.Config.model cfg ];
      use_paper_b = true;
    }
  in
  (cfg, spec)

let batch_tests =
  [
    qtest ~count:8 "Batch.run rows are jobs-independent" spec_gen
      (fun params ->
        let cfg, spec = build_spec params in
        let baseline = List.map strip_row (O.Batch.run ~jobs:1 cfg spec) in
        List.for_all
          (fun jobs ->
            List.map strip_row (O.Batch.run ~jobs cfg spec) = baseline)
          jobs_axis);
    qtest ~count:6 "Batch.run CSV is byte-identical modulo wall_s" spec_gen
      (fun params ->
        let cfg, spec = build_spec params in
        let csv jobs =
          O.Batch.to_csv (List.map strip_row (O.Batch.run ~jobs cfg spec))
        in
        let baseline = csv 1 in
        List.for_all (fun jobs -> csv jobs = baseline) jobs_axis);
  ]

(* ---------------- monte_carlo statistics ---------------- *)

let mc_gen =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* trials = int_range 1 60 in
    let* jitter10 = int_range 0 8 in
    return (seed, trials, jitter10))

let mc_tests =
  [
    qtest ~count:10 "monte_carlo stats are jobs-independent" mc_gen
      (fun (seed, trials, jitter10) ->
        let g = O.Kernels.lu ~n:8 ~ccr:5. in
        let plat = O.Platform.paper_platform () in
        let sched = O.Heft.schedule plat g in
        let jitter = float_of_int jitter10 /. 10. in
        let run jobs =
          O.Robustness.monte_carlo ~jobs sched (O.Rng.create ~seed) ~jitter
            ~trials
        in
        let baseline = run 1 in
        List.for_all (fun jobs -> run jobs = baseline) jobs_axis);
  ]

(* ---------------- merged Obs counter totals ---------------- *)

let obs_tests =
  [
    qtest ~count:6 "merged counter totals equal the serial totals" spec_gen
      (fun params ->
        let cfg, spec = build_spec params in
        let totals jobs =
          O.Obs_counters.enable ();
          O.Obs_counters.reset ();
          ignore (O.Batch.run ~jobs cfg spec : O.Runner.row list);
          let s = O.Obs_counters.snapshot () in
          O.Obs_counters.disable ();
          s
        in
        let baseline = totals 1 in
        (* a real workload bumps something — guard against a vacuous pass *)
        O.Obs_counters.(get baseline evaluations) > 0
        && List.for_all (fun jobs -> totals jobs = baseline) jobs_axis);
    Alcotest.test_case "counter merge is the per-domain sum" `Quick (fun () ->
        O.Obs_counters.enable ();
        O.Obs_counters.reset ();
        O.Pool.iter ~jobs:4 777 (fun _ -> O.Obs_counters.(bump commits));
        let s = O.Obs_counters.snapshot () in
        O.Obs_counters.disable ();
        check_int "commits" 777 O.Obs_counters.(get s commits));
  ]

(* ---------------- Pool.Team ---------------- *)

let team_tests =
  [
    Alcotest.test_case "team split is static, total and reusable" `Quick
      (fun () ->
        let team = O.Pool.Team.create ~helpers:3 in
        Fun.protect
          ~finally:(fun () -> O.Pool.Team.stop team)
          (fun () ->
            O.Obs_counters.enable ();
            List.iter
              (fun (jobs, n) ->
                O.Obs_counters.reset ();
                (* Workers only record; Alcotest checks run on the caller. *)
                let hits = Array.make n 0 and owner = Array.make n (-1) in
                O.Pool.Team.run team ~jobs ~n (fun ~worker i ->
                    hits.(i) <- hits.(i) + 1;
                    owner.(i) <- worker;
                    O.Obs_counters.(bump commits));
                let s = O.Obs_counters.snapshot () in
                let w = max 1 (min jobs (min n 4)) in
                Array.iteri
                  (fun i k ->
                    let what = Printf.sprintf "jobs %d, n %d, index %d" jobs n i in
                    check_int (what ^ " ran once") 1 hits.(i);
                    check_bool (what ^ " static owner") true
                      (k * n / w <= i && i < (k + 1) * n / w))
                  owner;
                check_int
                  (Printf.sprintf "jobs %d, n %d: merged commits" jobs n)
                  n O.Obs_counters.(get s commits))
              [ (1, 37); (2, 37); (4, 1013); (8, 3); (4, 1) ];
            O.Obs_counters.disable ();
            O.Pool.Team.run team ~jobs:4 ~n:0 (fun ~worker:_ _ ->
                Alcotest.fail "called on empty")));
    Alcotest.test_case "team re-raises worker failures and rejects misuse"
      `Quick (fun () ->
        Alcotest.check_raises "negative helpers"
          (Invalid_argument "Pool.Team.create: negative helpers") (fun () ->
            ignore (O.Pool.Team.create ~helpers:(-1) : O.Pool.Team.t));
        let team = O.Pool.Team.create ~helpers:2 in
        (* Index 0 belongs to the caller, index 250 to the last helper. *)
        List.iter
          (fun bad ->
            match
              O.Pool.Team.run team ~jobs:3 ~n:256 (fun ~worker:_ i ->
                  if i = bad then failwith "boom")
            with
            | () -> Alcotest.fail "exception swallowed"
            | exception Failure msg -> Alcotest.(check string) "msg" "boom" msg)
          [ 0; 250 ];
        (* The team stays usable after a failed run. *)
        let hits = Array.make 64 0 in
        O.Pool.Team.run team ~jobs:3 ~n:64 (fun ~worker:_ i ->
            hits.(i) <- hits.(i) + 1);
        check_bool "every index once" true (Array.for_all (( = ) 1) hits);
        O.Pool.Team.stop team;
        O.Pool.Team.stop team;
        Alcotest.check_raises "run after stop"
          (Invalid_argument "Pool.Team.run: stopped team") (fun () ->
            O.Pool.Team.run team ~jobs:3 ~n:8 (fun ~worker:_ _ -> ())));
  ]

let suite =
  pool_unit_tests @ pool_map_tests @ batch_tests @ mc_tests @ obs_tests
  @ team_tests
