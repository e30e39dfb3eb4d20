(* Observability layer: counters, span tracing, reports and the Chrome
   trace export.  The cardinal property is non-interference — turning
   observability on must not change any schedule. *)

module O = Onesched
open Util

(* Leave the global obs switches the way we found them. *)
let with_obs_off f =
  O.Obs_counters.disable ();
  O.Obs_span.disable ();
  Fun.protect
    ~finally:(fun () ->
      O.Obs_counters.disable ();
      O.Obs_span.disable ())
    f

let with_obs_on f =
  O.Obs_counters.enable ();
  O.Obs_counters.reset ();
  O.Obs_span.enable ();
  O.Obs_span.reset ();
  Fun.protect
    ~finally:(fun () ->
      O.Obs_counters.disable ();
      O.Obs_span.disable ())
    f

(* A snapshot holding exactly the bumps [f] makes. *)
let bumped f =
  with_obs_on @@ fun () ->
  f ();
  O.Obs_counters.snapshot ()

let counter_tests =
  [
    Alcotest.test_case "disabled bumps are no-ops" `Quick (fun () ->
        with_obs_off @@ fun () ->
        O.Obs_counters.reset ();
        O.Obs_counters.(bump evaluations);
        O.Obs_counters.(bump joint_gap_probes);
        O.Obs_counters.(bump commits);
        check_bool "still zero" true
          (O.Obs_counters.snapshot () = O.Obs_counters.zero));
    Alcotest.test_case "enabled bumps accumulate and reset zeroes" `Quick
      (fun () ->
        with_obs_on @@ fun () ->
        O.Obs_counters.(bump evaluations);
        O.Obs_counters.(bump evaluations);
        O.Obs_counters.(bump pruned_evaluations);
        O.Obs_counters.(bump aborted_evaluations);
        O.Obs_counters.(bump route_cache_hits);
        O.Obs_counters.(bump rollbacks);
        O.Obs_counters.(bump joint_gap_probes);
        O.Obs_counters.(bump tentative_hops);
        O.Obs_counters.(bump commits);
        O.Obs_counters.(bump copies);
        let c = O.Obs_counters.snapshot () in
        check_int "evaluations" 2 O.Obs_counters.(get c evaluations);
        check_int "pruned evaluations" 1
          O.Obs_counters.(get c pruned_evaluations);
        check_int "aborted evaluations" 1
          O.Obs_counters.(get c aborted_evaluations);
        check_int "route cache hits" 1
          O.Obs_counters.(get c route_cache_hits);
        check_int "rollbacks" 1 O.Obs_counters.(get c rollbacks);
        check_int "joint gap probes" 1
          O.Obs_counters.(get c joint_gap_probes);
        check_int "tentative hops" 1 O.Obs_counters.(get c tentative_hops);
        check_int "commits" 1 O.Obs_counters.(get c commits);
        check_int "copies" 1 O.Obs_counters.(get c copies);
        O.Obs_counters.reset ();
        check_bool "reset zeroes" true
          (O.Obs_counters.snapshot () = O.Obs_counters.zero));
    Alcotest.test_case "diff is per-field subtraction" `Quick (fun () ->
        with_obs_on @@ fun () ->
        O.Obs_counters.(bump evaluations);
        let before = O.Obs_counters.snapshot () in
        O.Obs_counters.(bump evaluations);
        O.Obs_counters.(bump commits);
        let after = O.Obs_counters.snapshot () in
        let d = O.Obs_counters.diff before after in
        check_int "evaluations delta" 1 O.Obs_counters.(get d evaluations);
        check_int "commits delta" 1 O.Obs_counters.(get d commits);
        check_int "copies delta" 0 O.Obs_counters.(get d copies));
    Alcotest.test_case "aborted evaluations print only when nonzero" `Quick
      (fun () ->
        let show c = Format.asprintf "%a" O.Obs_counters.pp c in
        let quiet = show O.Obs_counters.zero in
        check_bool "absent at zero" false (contains quiet "aborted");
        let c =
          bumped (fun () ->
              for _ = 1 to 3 do
                O.Obs_counters.(bump aborted_evaluations)
              done)
        in
        let loud = show c in
        check_bool "after copies when nonzero" true
          (List.nth (String.split_on_char '\n' loud) 7
          = "aborted evaluations: 3");
        (* the lines perfbench parses keep their names *)
        check_bool "evaluations line kept" true
          (contains loud "evaluations:      0");
        check_bool "pruned line kept" true
          (contains loud "pruned evaluations: 0");
        (* merge folds it in like every other counter *)
        with_obs_on @@ fun () ->
        O.Obs_counters.merge c;
        check_int "merged" 3
          O.Obs_counters.(get (snapshot ()) aborted_evaluations));
    Alcotest.test_case "a real schedule drives every hot counter" `Quick
      (fun () ->
        with_obs_on @@ fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.lu ~n:15 ~ccr:10. in
        ignore (O.Heft.schedule plat g : O.Schedule.t);
        let c = O.Obs_counters.snapshot () in
        let tasks = O.Graph.n_tasks g in
        check_bool "one evaluation per (task, proc) at least" true
          (O.Obs_counters.(get c evaluations) >= tasks);
        check_int "one commit per task" tasks O.Obs_counters.(get c commits);
        check_bool "gap probes outnumber commits" true
          O.Obs_counters.(get c joint_gap_probes > get c commits);
        check_bool "candidate pruning fires" true
          (O.Obs_counters.(get c pruned_evaluations) > 0);
        check_bool "route cache is reused" true
          (O.Obs_counters.(get c route_cache_hits) > 0));
    Alcotest.test_case "the doc's counter table lists the registry" `Quick
      (fun () ->
        (* first cells of the table under "| counter |", header and
           separator skipped *)
        let rec table = function
          | l :: _ :: rest when String.starts_with ~prefix:"| counter |" l ->
              rows rest
          | _ :: rest -> table rest
          | [] -> []
        and rows = function
          | l :: rest when String.starts_with ~prefix:"| `" l ->
              List.nth (String.split_on_char '`' l) 1 :: rows rest
          | _ -> []
        in
        let doc =
          In_channel.with_open_text "../doc/observability.md"
            In_channel.input_all
        in
        Alcotest.(check (list string))
          "doc/observability.md rows"
          (List.map fst (O.Obs_counters.to_list O.Obs_counters.zero))
          (table (String.split_on_char '\n' doc)));
    Alcotest.test_case "optional blocks keep one counter per line in any box"
      `Quick (fun () ->
        let c =
          bumped (fun () ->
              O.Obs_counters.(
                List.iter bump
                  [ copies; copies; copies; retries; rollbacks; rollbacks ];
                for _ = 1 to 4 do
                  bump requests
                done))
        in
        (* 7 base lines, then the fault, incremental and daemon blocks *)
        let expect = 7 + 3 + 3 + 3 in
        List.iter
          (fun (box, show) ->
            let lines = String.split_on_char '\n' (show c) in
            check_int (box ^ ": line count") expect (List.length lines);
            List.iter
              (fun l ->
                check_bool
                  (Printf.sprintf "%s: one counter on %S" box l)
                  true
                  (List.length (String.split_on_char ':' l) = 2
                  && l = String.trim l))
              lines)
          [
            ("hov", Format.asprintf "@[<hov>%a@]" O.Obs_counters.pp);
            ("h", Format.asprintf "@[<h>%a@]" O.Obs_counters.pp);
            ("hov 2", Format.asprintf "@[<hov 2>%a@]" O.Obs_counters.pp);
            ("none", Format.asprintf "%a" O.Obs_counters.pp);
          ]);
  ]

let span_tests =
  [
    Alcotest.test_case "with_ brackets and nests" `Quick (fun () ->
        with_obs_on @@ fun () ->
        let r =
          O.Obs_span.with_ "outer" (fun () ->
              O.Obs_span.with_ "inner" (fun () -> 42))
        in
        check_int "result threaded" 42 r;
        let names =
          List.map
            (fun (e : O.Obs_span.event) ->
              ( e.O.Obs_span.name,
                match e.O.Obs_span.kind with
                | O.Obs_span.Begin -> "B"
                | O.Obs_span.End -> "E" ))
            (O.Obs_span.events ())
        in
        check_bool "B/E properly nested" true
          (names
          = [
              ("outer", "B"); ("inner", "B"); ("inner", "E"); ("outer", "E");
            ]));
    Alcotest.test_case "end event survives an exception" `Quick (fun () ->
        with_obs_on @@ fun () ->
        (try O.Obs_span.with_ "boom" (fun () -> failwith "x") with
        | Failure _ -> ());
        let kinds =
          List.map (fun (e : O.Obs_span.event) -> e.O.Obs_span.kind)
            (O.Obs_span.events ())
        in
        check_bool "begin then end" true
          (kinds = [ O.Obs_span.Begin; O.Obs_span.End ]));
    Alcotest.test_case "timestamps never run backwards" `Quick (fun () ->
        with_obs_on @@ fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.stencil ~n:20 ~ccr:10. in
        ignore (O.Ilha.schedule plat g : O.Schedule.t);
        let rec monotone last = function
          | [] -> true
          | (e : O.Obs_span.event) :: rest ->
              e.O.Obs_span.ts >= last && monotone e.O.Obs_span.ts rest
        in
        check_bool "monotone" true (monotone 0. (O.Obs_span.events ())));
    Alcotest.test_case "ring overwrites oldest and counts drops" `Quick
      (fun () ->
        O.Obs_span.enable ~capacity:8 ();
        O.Obs_span.reset ();
        Fun.protect ~finally:(fun () ->
            O.Obs_span.disable ();
            (* restore the default ring for later suites *)
            O.Obs_span.enable ();
            O.Obs_span.disable ())
        @@ fun () ->
        for i = 0 to 9 do
          O.Obs_span.with_ (string_of_int i) (fun () -> ())
        done;
        check_int "ring holds capacity" 8
          (List.length (O.Obs_span.events ()));
        check_int "drops counted" 12 (O.Obs_span.dropped ()));
  ]

(* The whole point: observability must not perturb scheduling. *)
let non_interference_tests =
  [
    Alcotest.test_case "tracing on/off yields identical makespans" `Quick
      (fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.doolittle ~n:20 ~ccr:10. in
        List.iter
          (fun (entry : O.Registry.entry) ->
            let off =
              with_obs_off (fun () ->
                  O.Schedule.makespan
                    (entry.O.Registry.scheduler O.Params.default plat g))
            in
            let on =
              with_obs_on (fun () ->
                  O.Schedule.makespan
                    (entry.O.Registry.scheduler O.Params.default plat g))
            in
            check_float (entry.O.Registry.name ^ " unchanged") off on)
          O.Registry.all);
  ]

let report_tests =
  [
    Alcotest.test_case "capture with obs disabled is empty" `Quick (fun () ->
        with_obs_off @@ fun () ->
        let x, report = O.Obs_report.capture (fun () -> 7) in
        check_int "value threaded" 7 x;
        check_bool "empty report" true (report = O.Obs_report.empty));
    Alcotest.test_case "capture scopes counters and phases" `Quick (fun () ->
        with_obs_on @@ fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.lu ~n:10 ~ccr:10. in
        (* pollute before the window: capture must not see this *)
        ignore (O.Heft.schedule plat g : O.Schedule.t);
        let before = O.Obs_counters.snapshot () in
        let _, report =
          O.Obs_report.capture (fun () ->
              ignore (O.Heft.schedule plat g : O.Schedule.t))
        in
        let c = report.O.Obs_report.counters in
        check_int "window commits = one run" (O.Graph.n_tasks g)
          O.Obs_counters.(get c commits);
        check_int "pre-window commits excluded"
          O.Obs_counters.(get before commits) O.Obs_counters.(get c commits);
        check_bool "heft phase reported" true
          (List.mem_assoc "heft" report.O.Obs_report.phases);
        check_bool "rank phase reported" true
          (List.mem_assoc "rank" report.O.Obs_report.phases));
  ]

(* A hand-rolled structural check of the Chrome trace: we do not have a
   JSON parser in the test closure, so scan the flat event array the
   exporter emits (one object per line, known key order). *)
let trace_lines json =
  check_bool "array-shaped" true
    (String.length json > 2 && json.[0] = '[' && contains json "]");
  String.split_on_char '\n' json
  |> List.filter (fun l -> contains l {|"ph":|})

let field line key =
  (* extract the value of "key": up to the next , or } *)
  let tag = Printf.sprintf {|"%s":|} key in
  let n = String.length line and m = String.length tag in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = tag then
      let stop = ref (i + m) in
      while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      Some (String.sub line (i + m) (!stop - i - m))
    else find (i + 1)
  in
  find 0

let export_tests =
  [
    Alcotest.test_case "chrome export is balanced and monotone" `Quick
      (fun () ->
        let json =
          with_obs_on (fun () ->
              let plat = O.Platform.paper_platform () in
              let g = O.Kernels.lu ~n:15 ~ccr:10. in
              ignore (O.Ilha.schedule plat g : O.Schedule.t);
              let c = O.Obs_counters.snapshot () in
              O.Obs_trace.to_chrome ~counters:c (O.Obs_span.events ()))
        in
        let lines = trace_lines json in
        let depth = ref 0 and last_ts = ref neg_infinity and ok = ref true in
        let n_durations = ref 0 in
        List.iter
          (fun line ->
            (match field line "ph" with
            | Some {|"B"|} ->
                incr depth;
                incr n_durations
            | Some {|"E"|} ->
                decr depth;
                incr n_durations;
                if !depth < 0 then ok := false
            | _ -> ());
            match field line "ts" with
            | Some ts ->
                let ts = float_of_string ts in
                if ts < !last_ts then ok := false;
                last_ts := ts
            | None -> ())
          lines;
        check_bool "has duration events" true (!n_durations > 0);
        check_int "spans balanced" 0 !depth;
        check_bool "no orphan end, monotone ts" true !ok;
        check_bool "metadata present" true
          (contains json {|"ph":"M"|} && contains json "scheduler");
        check_bool "counter track present" true
          (contains json {|"ph":"C"|} && contains json "evaluations"
          && contains json {|"aborted_evaluations":|}));
    Alcotest.test_case "counter track carries every registered key" `Quick
      (fun () ->
        let c =
          bumped (fun () ->
              O.Obs_counters.(
                List.iter bump [ requests; batched_replans; queued_jobs ];
                backoff 0.5))
        in
        let json = O.Obs_trace.to_chrome ~counters:c [] in
        let track =
          List.find (fun l -> field l "ph" = Some {|"C"|}) (trace_lines json)
        in
        let keys =
          [ "evaluations"; "pruned_evaluations"; "route_cache_hits";
            "joint_gap_probes"; "tentative_hops"; "commits";
            "copies"; "aborted_evaluations"; "retries"; "repairs";
            "backoff_s"; "rollbacks"; "replayed_tasks";
            "search_pruned_nodes"; "replans"; "shed_jobs"; "frozen_tasks";
            "deadline_misses"; "requests"; "batched_replans"; "queued_jobs" ]
        in
        check_int "21 keys" 21 (List.length keys);
        check_float "backoff reader" 0.5 (O.Obs_counters.backoff_s c);
        List.iter
          (fun k ->
            check_bool (k ^ " present") true (field track k <> None))
          keys;
        check_bool "registry order" true
          (List.map fst (O.Obs_counters.to_list c) = keys);
        List.iter
          (fun (k, v) -> check_bool k true (field track k = Some v))
          [ ("requests", "1"); ("batched_replans", "1"); ("queued_jobs", "1");
            ("backoff_s", "0.5"); ("evaluations", "0") ]);
    Alcotest.test_case "orphan events are repaired on export" `Quick
      (fun () ->
        with_obs_on @@ fun () ->
        (* an End with no Begin, then a Begin never closed *)
        O.Obs_span.end_ "orphan-end";
        O.Obs_span.begin_ "left-open";
        let json = O.Obs_trace.to_chrome (O.Obs_span.events ()) in
        check_bool "orphan end dropped" true
          (not (contains json "orphan-end"));
        let lines = trace_lines json in
        let opens =
          List.filter (fun l -> field l "ph" = Some {|"B"|}) lines
        and closes =
          List.filter (fun l -> field l "ph" = Some {|"E"|}) lines
        in
        check_int "synthesized closer" (List.length opens)
          (List.length closes));
  ]

let runner_obs_tests =
  [
    Alcotest.test_case "runner rows carry obs only when enabled" `Quick
      (fun () ->
        let cfg = O.Config.with_sizes (O.Config.paper ()) [ 10 ] in
        let run () =
          O.Runner.run cfg ~testbed:(O.Suite.find "lu") ~n:10
            ~heuristic:(O.Registry.find "heft") ()
        in
        let row_off = with_obs_off run in
        check_bool "no payload when disabled" true
          (row_off.O.Runner.obs = None);
        let row_on = with_obs_on run in
        match row_on.O.Runner.obs with
        | None -> Alcotest.fail "expected an obs payload"
        | Some report ->
            check_bool "counted the run" true
              O.Obs_counters.(get report.O.Obs_report.counters commits > 0));
  ]

(* deterministic: List.iter over the first line of the exporter output
   keeps field order stable; see lib/obs/trace_export.ml *)

let suite =
  counter_tests @ span_tests @ non_interference_tests @ report_tests
  @ export_tests @ runner_obs_tests
