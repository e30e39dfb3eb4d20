(* Timing and resource claims: the assertions that need a wall clock or
   the process's memory high-water, so they stay out of the
   deterministic unit and cram suites.

   - anneal: the incremental annealer (commit-log rewind) ends on the
     same makespan as the oracle's [Anneal_ref], which rebuilds the
     schedule per step, and beats its wall time on the largest instance;
   - online: under a crash / outage / rejoin trace, incremental
     re-planning reproduces every from-scratch makespan and beats its
     total re-plan time on the largest instance (best of 3);
   - scale: HEFT and ILHA schedule a >= 10^5-task LU in under 60 s
     each, within a 2 GB peak resident set;
   - join: heft-dup on FORK-JOIN n = 120 (ccr 10, one copy per task)
     maps in at most 6x plain HEFT's time on the same graph, best of 20
     alternated runs each.  It prices the 120-input join once per
     processor and trial copy, so a pricing that is quadratic in the
     in-degree shows as a ratio near 10x.

   Usage: dune exec test/claims/claims.exe
   Prints one line per claim and exits 1 if any bound fails.  It takes
   no flags; the scale claim alone takes a few seconds. *)

module O = Onesched

let plat = O.Platform.paper_platform ()
let failures = ref 0

let claim name ok detail =
  Printf.printf "%s %s: %s\n%!" (if ok then "ok  " else "FAIL") name detail;
  if not ok then incr failures

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* The LU sizes of the incremental claims; the speedup bound applies to
   the largest, where the work a rewind saves dominates its overhead. *)
let sizes = [ 20; 40; 60 ]
let largest = 60

let speedup_detail ~n ~slow ~fast =
  let s = slow /. fast in
  ( n <> largest || s > 1.,
    Printf.sprintf "%.3fs vs %.3fs from scratch, speedup %.2fx%s" fast slow s
      (if n = largest then " (bound > 1)" else "") )

let anneal () =
  let params =
    { O.Anneal.default_params with O.Anneal.steps = 40; seed = 20020422 }
  in
  List.iter
    (fun n ->
      let sched = O.Heft.schedule plat (O.Kernels.lu ~n ~ccr:10.) in
      let inc, fast = time (fun () -> O.Anneal.improve ~params sched) in
      let scr, slow =
        time (fun () -> Onesched_oracle.Anneal_ref.improve ~params sched)
      in
      let a = inc.O.Anneal.final_makespan and b = scr.O.Anneal.final_makespan in
      let fast_ok, timing = speedup_detail ~n ~slow ~fast in
      claim
        (Printf.sprintf "anneal lu n=%d" n)
        (a = b && fast_ok)
        (Printf.sprintf "final makespan %g %s %g, %s" a
           (if a = b then "=" else "<>")
           b timing))
    sizes

(* Best of [repeats] runs: the outcome and steady-state re-plan time
   (the initial plan is the same build on both paths, so it is left
   out) of the run with the least such time. *)
let online_run ~incremental events =
  let repeats = 3 in
  let config = { O.Online_driver.default_config with incremental } in
  let runs =
    List.init repeats (fun _ ->
        let o = O.Online_driver.run ~config plat events in
        let steady =
          match o.O.Online_driver.replans with [] -> [] | _ :: tl -> tl
        in
        ( o,
          List.fold_left
            (fun acc r -> acc +. r.O.Online_driver.wall_s)
            0. steady ))
  in
  List.fold_left
    (fun (bo, bt) (o, t) -> if t < bt then (o, t) else (bo, bt))
    (List.hd runs) (List.tl runs)

let online () =
  List.iter
    (fun n ->
      let nominal =
        O.Schedule.makespan (O.Heft.schedule plat (O.Kernels.lu ~n ~ccr:10.))
      in
      let ev f kind = { O.Online_event.at = f *. nominal; kind } in
      let events =
        [
          ev 0. (O.Online_event.Arrive (O.Online_event.job ~ccr:10. "lu" n));
          ev 0.55 (O.Online_event.Crash 1);
          ev 0.65 (O.Online_event.Down 2);
          ev 0.72 (O.Online_event.Rejoin 2);
          ev 0.80 (O.Online_event.Crash 3);
          ev 0.90 (O.Online_event.Rejoin 3);
        ]
      in
      let inc, fast = online_run ~incremental:true events in
      let scr, slow = online_run ~incremental:false events in
      let makespans (o : O.Online_driver.outcome) =
        o.O.Online_driver.makespan
        :: List.map
             (fun (r : O.Online_driver.replan_report) -> r.makespan)
             o.O.Online_driver.replans
      in
      let identical = makespans inc = makespans scr in
      let fast_ok, timing = speedup_detail ~n ~slow ~fast in
      claim
        (Printf.sprintf "online lu n=%d" n)
        (identical && fast_ok)
        (Printf.sprintf "%d steady-state replans, makespans %s, %s"
           (List.length inc.O.Online_driver.replans - 1)
           (if identical then "identical" else "DIVERGED")
           timing))
    sizes

(* Peak resident set in kB: VmHWM where /proc exists, otherwise the
   GC's top-of-heap high-water (a lower bound). *)
let peak_rss_kb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> raise Not_found
          | Some line -> (
              try Scanf.sscanf line "VmHWM: %d kB" Fun.id
              with Scanf.Scan_failure _ | End_of_file -> go ())
        in
        go ())
  in
  try from_proc ()
  with Sys_error _ | Not_found ->
    (Gc.quick_stat ()).Gc.top_heap_words / 1024 * (Sys.word_size / 8)

let scale () =
  let target = 100_000 in
  (* the smallest LU triangle, n (n - 1) / 2 tasks, holding [target] *)
  let n =
    int_of_float
      (Float.ceil ((1. +. sqrt (1. +. (8. *. float_of_int target))) /. 2.))
  in
  let g, build_s = time (fun () -> O.Kernels.lu ~n ~ccr:10.) in
  let tasks = O.Graph.n_tasks g in
  let b = (O.Suite.find "lu").O.Suite.paper_b in
  let ilha = O.Params.make ~b () in
  List.iter
    (fun (name, schedule) ->
      let sched, s = time schedule in
      let rss = peak_rss_kb () in
      claim
        (Printf.sprintf "scale %s lu n=%d" name n)
        (tasks >= target && s < 60. && rss < 2_000_000)
        (Printf.sprintf
           "%d tasks (bound >= %d), built in %.2fs, scheduled in %.2fs \
            (bound < 60), %.0f tasks/s, makespan %g, peak rss %d MB (bound < \
            2000)"
           tasks target build_s s
           (float_of_int tasks /. s)
           (O.Schedule.makespan sched) (rss / 1024)))
    [
      ("heft", fun () -> O.Heft.schedule plat g);
      ( Printf.sprintf "ilha[b=%d]" b,
        fun () -> O.Ilha.schedule ~params:ilha plat g );
    ]

let join () =
  let n = 120 and bound = 6. and runs = 20 in
  let g = (O.Suite.find "fork-join").O.Suite.build ~n ~ccr:10. in
  let params = O.Params.make () in
  let heft = O.Registry.find "heft" and dup = O.Registry.find "heft-dup" in
  let dup_params = O.Params.with_dup_limit params 1 in
  let best_heft = ref infinity and best_dup = ref infinity in
  for _ = 1 to runs do
    let _, s = time (fun () -> heft.O.Registry.scheduler params plat g) in
    best_heft := Float.min !best_heft s;
    let _, s = time (fun () -> dup.O.Registry.scheduler dup_params plat g) in
    best_dup := Float.min !best_dup s
  done;
  let ratio = !best_dup /. !best_heft in
  claim
    (Printf.sprintf "join heft-dup fork-join n=%d" n)
    (ratio <= bound)
    (Printf.sprintf "%.3f ms vs %.3f ms for heft, ratio %.2fx (bound <= %g)"
       (1000. *. !best_dup) (1000. *. !best_heft) ratio bound)

let () =
  anneal ();
  online ();
  scale ();
  join ();
  if !failures > 0 then begin
    Printf.printf "%d claim(s) failed\n" !failures;
    exit 1
  end
