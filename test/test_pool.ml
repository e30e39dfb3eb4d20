(* The determinism-proving harness for the domain-parallel sweeps.

   The contract under test: for any job count, (1) the one pool runs
   every index of a range exactly once, merges every worker's counters
   at its barrier and re-raises a worker's exception, on a fresh pool
   ([Pool.iter]) and on one reused across runs ([Pool.run]), (2)
   Batch.run produces the very same rows in the very same order, (3)
   monte_carlo produces bit-identical statistics, and (4) the Obs
   counter totals merged at the pool barrier equal the serial totals.
   Everything runs at jobs ∈ {1, 2, 4, 8} against the jobs = 1
   baseline. *)

module O = Onesched
open Util

let jobs_axis = [ 2; 4; 8 ]

(* ---------------- Pool.iter ---------------- *)

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
    qtest ~count:50 "iter fills cell-indexed results for every jobs"
      QCheck2.Gen.(array_size (int_bound 200) (int_bound 10_000))
      (fun a ->
        let expect = Array.map (fun x -> (2 * x) + 1) a in
        List.for_all
          (fun jobs ->
            let out = Array.make (Array.length a) (-1) in
            O.Pool.iter ~jobs (Array.length a) (fun i ->
                out.(i) <- (2 * a.(i)) + 1);
            out = expect)
          (1 :: jobs_axis));
    qtest ~count:20 "iter propagates the failing index's exception"
      QCheck2.Gen.(int_range 0 99)
      (fun bad ->
        List.for_all
          (fun jobs ->
            match O.Pool.iter ~jobs 100 (fun i -> if i = bad then raise Exit)
            with
            | () -> false
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

(* ---------------- one reused pool ---------------- *)

(* Skewed cell costs, as in the evaluation grid: most cells are cheap,
   one in [1 lsl skew] is a hundred times dearer. *)
let spin k =
  let x = ref 0 in
  for j = 1 to k do
    x := !x lxor (j * 7919)
  done;
  ignore (Sys.opaque_identity !x : int)

let cell_cost ~seed ~skew i =
  if Hashtbl.hash (seed, i) land ((1 lsl skew) - 1) = 0 then 20_000 else 200

(* Run [n] cells on [pool]; workers only record, the caller checks. *)
let run_counted pool n f =
  O.Obs_counters.reset ();
  let hits = Array.make n 0 in
  O.Pool.run pool n (fun i ->
      f i;
      hits.(i) <- hits.(i) + 1;
      O.Obs_counters.(bump commits));
  let s = O.Obs_counters.snapshot () in
  (hits, O.Obs_counters.(get s commits))

let reused_pool_tests =
  [
    qtest ~count:20 "a reused pool runs each index once across ranges"
      QCheck2.Gen.(
        let* jobs = int_range 2 8 in
        let* seed = int_bound 10_000 in
        let* skew = int_range 1 5 in
        (* a range shorter than the pool, then ranges of random size *)
        let* short = int_bound (jobs - 1) in
        let* ns = list_size (int_range 1 4) (int_bound 2_000) in
        return (jobs, seed, skew, short :: ns))
      (fun (jobs, seed, skew, ns) ->
        let pool = O.Pool.create ~jobs in
        O.Obs_counters.enable ();
        Fun.protect
          ~finally:(fun () ->
            O.Obs_counters.disable ();
            O.Pool.stop pool)
          (fun () ->
            List.for_all
              (fun n ->
                let hits, commits =
                  run_counted pool n (fun i -> spin (cell_cost ~seed ~skew i))
                in
                Array.for_all (( = ) 1) hits && commits = n)
              ns));
    Alcotest.test_case "pool runs every index once, merges counters, reuses"
      `Quick (fun () ->
        let pool = O.Pool.create ~jobs:4 in
        Fun.protect
          ~finally:(fun () -> O.Pool.stop pool)
          (fun () ->
            O.Obs_counters.enable ();
            List.iter
              (fun n ->
                let hits, commits = run_counted pool n ignore in
                Array.iteri
                  (fun i h ->
                    check_int (Printf.sprintf "n %d, index %d ran once" n i) 1 h)
                  hits;
                check_int (Printf.sprintf "n %d: merged commits" n) n commits)
              [ 37; 37; 1013; 3; 1 ];
            O.Obs_counters.disable ();
            O.Pool.run pool 0 (fun _ -> Alcotest.fail "called on empty")));
    Alcotest.test_case "pool re-raises worker failures and rejects misuse"
      `Quick (fun () ->
        Alcotest.check_raises "jobs = 0" (Invalid_argument "Pool.create: jobs < 1")
          (fun () -> ignore (O.Pool.create ~jobs:0 : O.Pool.t));
        let pool = O.Pool.create ~jobs:3 in
        (* Index 0 is in the first chunk claimed, index 250 in one of the
           last. *)
        List.iter
          (fun bad ->
            match O.Pool.run pool 256 (fun i -> if i = bad then failwith "boom")
            with
            | () -> Alcotest.fail "exception swallowed"
            | exception Failure msg -> Alcotest.(check string) "msg" "boom" msg)
          [ 0; 250 ];
        (* The pool stays usable after a failed run. *)
        let hits = Array.make 64 0 in
        O.Pool.run pool 64 (fun i -> hits.(i) <- hits.(i) + 1);
        check_bool "every index once" true (Array.for_all (( = ) 1) hits);
        O.Pool.stop pool;
        O.Pool.stop pool;
        Alcotest.check_raises "run after stop"
          (Invalid_argument "Pool.run: stopped pool") (fun () ->
            O.Pool.run pool 8 (fun _ -> ())));
  ]

let suite =
  pool_unit_tests @ batch_tests @ mc_tests @ obs_tests @ reused_pool_tests
