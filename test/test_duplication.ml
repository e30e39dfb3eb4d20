(* Task duplication: copy-set semantics across the stack.

   Three angles: single-copy schedules must round-trip through the
   copy-set API bit-identically (the representation change is invisible
   until someone duplicates), the validator must reject malformed
   copy-sets, and heft-dup must actually win somewhere — on a pinned
   FORK-JOIN instance where replicating the fork root removes the
   bottleneck communications. *)

module O = Onesched
open Util

let eps = 1e-9

(* ---- round-trip: every heuristic x testbed x model stays single-copy
   and survives copy/place_copy/unplace_copy unchanged ---- *)

let roundtrip_models = [ O.Comm_model.one_port; O.Comm_model.macro_dataflow ]

let roundtrip () =
  let plat = O.Platform.paper_platform () in
  List.iter
    (fun model ->
      let params = O.Params.of_model model in
      List.iter
        (fun tb_name ->
          let tb = O.Suite.find tb_name in
          let g = tb.O.Suite.build ~n:(max 20 tb.O.Suite.min_n) ~ccr:10. in
          List.iter
            (fun hname ->
              let ctx =
                Printf.sprintf "%s/%s/%s" hname tb_name
                  (O.Comm_model.name model)
              in
              let entry = O.Registry.find hname in
              let sched = entry.O.Registry.scheduler params plat g in
              let fp = O.Export.fingerprint sched in
              (* heft-dup may legitimately duplicate; everyone else must
                 stay single-copy *)
              if hname <> "heft-dup" then begin
              check_bool (ctx ^ ": single-copy") false
                (O.Schedule.has_dups sched);
              check_int (ctx ^ ": no dup copies") 0
                (O.Schedule.n_dup_copies sched);
              for v = 0 to O.Graph.n_tasks g - 1 do
                let pl = O.Schedule.placement_exn sched v in
                (match O.Schedule.copies sched v with
                | [ c ] -> check_bool (ctx ^ ": copies = [primary]") true (c = pl)
                | _ -> Alcotest.failf "%s: task %d has several copies" ctx v);
                check_float
                  (ctx ^ ": earliest = primary finish")
                  pl.O.Schedule.finish
                  (O.Schedule.earliest_finish sched v)
              done
              end;
              (* a deep copy fingerprints identically *)
              Alcotest.(check string)
                (ctx ^ ": copy round-trip") fp
                (O.Export.fingerprint (O.Schedule.copy sched));
              (* placing and retracting a duplicate copy restores the
                 original fingerprint exactly (port regime only) *)
              if
                model.O.Comm_model.regime = O.Comm_model.Port
                && not (O.Schedule.has_dups sched)
              then begin
                let pl = O.Schedule.placement_exn sched 0 in
                let q = (pl.O.Schedule.proc + 1) mod O.Platform.p plat in
                let far = O.Schedule.makespan sched +. 10. in
                O.Schedule.place_copy sched ~task:0 ~proc:q ~start:far;
                check_bool (ctx ^ ": dup visible") true
                  (O.Schedule.has_dups sched);
                O.Schedule.unplace_copy sched ~task:0 ~proc:q;
                Alcotest.(check string)
                  (ctx ^ ": place/unplace round-trip") fp
                  (O.Export.fingerprint sched)
              end)
            O.Registry.names)
        O.Suite.names)
    roundtrip_models

(* ---- validator: malformed copy-sets are rejected ---- *)

(* An unfed duplicate: a copy of the join task parked on a processor
   where no predecessor copy lives and no chain arrives. *)
let validate_unfed_copy () =
  let plat = O.Platform.paper_platform () in
  let tb = O.Suite.find "fork-join" in
  let g = tb.O.Suite.build ~n:20 ~ccr:10. in
  let sched = O.Heft.schedule plat g in
  (match O.Validate.check sched with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "baseline HEFT schedule should be valid");
  let n = O.Graph.n_tasks g in
  let sink = n - 1 in
  (* a processor holding no copy of any of the sink's predecessors *)
  let pred_procs = ref [] in
  O.Graph.iter_pred_edges g sink ~f:(fun e ->
      let u = O.Graph.edge_src g e in
      pred_procs := (O.Schedule.placement_exn sched u).O.Schedule.proc
                    :: !pred_procs);
  let sink_proc = (O.Schedule.placement_exn sched sink).O.Schedule.proc in
  let q =
    List.find
      (fun q -> q <> sink_proc && not (List.mem q !pred_procs))
      (List.init (O.Platform.p plat) Fun.id)
  in
  O.Schedule.place_copy sched ~task:sink ~proc:q
    ~start:(O.Schedule.makespan sched +. 5.);
  match O.Validate.check sched with
  | Ok () -> Alcotest.fail "an unfed duplicate copy must not validate"
  | Error msgs ->
      check_bool "mentions the unfed copy" true
        (List.exists (fun m -> contains m "no completed copy") msgs)

(* An orphan chain: a communication departing a processor where the
   source task has no copy at all. *)
let validate_orphan_chain () =
  let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
  let g =
    O.Graph.create ~weights:[| 1.; 1. |] ~edges:[ (0, 1, 1.) ] ()
  in
  let model = O.Comm_model.one_port in
  let sched = O.Schedule.create ~graph:g ~platform:plat ~model () in
  O.Schedule.place_task sched ~task:0 ~proc:0 ~start:0.;
  (* the chain leaves processor 2 — task 0 never ran there *)
  let (_ : float) =
    O.Schedule.add_comm sched ~edge:0 ~src_proc:2 ~dst_proc:1 ~start:1.
  in
  O.Schedule.place_task sched ~task:1 ~proc:1 ~start:2.;
  (* make it a copy-set schedule so the copy-aware checker runs *)
  O.Schedule.place_copy sched ~task:0 ~proc:1 ~start:10.;
  match O.Validate.check sched with
  | Ok () -> Alcotest.fail "an orphan chain must not validate"
  | Error msgs ->
      check_bool "mentions the orphan departure" true
        (List.exists (fun m -> contains m "has no copy") msgs)

(* ---- the pinned win: FORK-JOIN, paper platform, one-port, ccr 1 ---- *)

let pinned_win () =
  let plat = O.Platform.paper_platform () in
  let tb = O.Suite.find "fork-join" in
  let g = tb.O.Suite.build ~n:100 ~ccr:1. in
  let params = O.Params.with_dup_limit O.Params.default 1 in
  let heft = O.Heft.schedule ~params plat g in
  let dup = O.Heft_dup.schedule ~params plat g in
  let mh = O.Schedule.makespan heft in
  let md = O.Schedule.makespan dup in
  check_bool
    (Printf.sprintf "heft-dup strictly beats heft (%g < %g)" md mh)
    true (md < mh -. eps);
  check_bool "the win comes from real duplicates" true
    (O.Schedule.has_dups dup);
  (match O.Validate.check dup with
  | Ok () -> ()
  | Error msgs ->
      Alcotest.failf "duplicated schedule invalid: %s" (List.hd msgs));
  (* the discrete-event executor reproduces the duplicated plan *)
  let trace = O.Executor.run dup in
  check_float "executor reproduces the makespan" md
    trace.O.Executor.makespan;
  (* and the PERT view can retime it without stretching *)
  let pert = O.Pert.build dup in
  check_bool "compaction never worsens" true
    (O.Pert.compacted_makespan pert <= md +. eps)

(* dup_limit 0 still duplicates at most once per candidate (the knob
   floors at one exploratory copy), and higher limits stay valid *)
let limits () =
  let plat = O.Platform.paper_platform () in
  let tb = O.Suite.find "fork-join" in
  let g = tb.O.Suite.build ~n:60 ~ccr:1. in
  List.iter
    (fun limit ->
      let params = O.Params.with_dup_limit O.Params.default limit in
      let s = O.Heft_dup.schedule ~params plat g in
      match O.Validate.check s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "dup_limit %d invalid: %s" limit (List.hd msgs))
    [ 0; 1; 2; 3 ]

(* ---- pinned heft-dup schedules: the six testbeds x ccr {1, 10} x
   dup limit {1, 2, 3}, paper platform, one-port, n = 30.  Each
   [Export.fingerprint] covers makespan, every copy and every
   communication event bit for bit; half of the rows keep duplicates,
   so a change to the exploration or to the replay of its winner shows
   here. ---- *)

let dup_goldens =
  [
    ("lu", 1., 1, "e2b1e8241bcea6c5a652d84d5f2c3ecc");
    ("lu", 1., 2, "e2b1e8241bcea6c5a652d84d5f2c3ecc");
    ("lu", 1., 3, "e2b1e8241bcea6c5a652d84d5f2c3ecc");
    ("lu", 10., 1, "13de14f76ab2539c1d6766afe913fcf0");
    ("lu", 10., 2, "13de14f76ab2539c1d6766afe913fcf0");
    ("lu", 10., 3, "13de14f76ab2539c1d6766afe913fcf0");
    ("laplace", 1., 1, "19f230a44de9703516b0a771003b702c");
    ("laplace", 1., 2, "19f230a44de9703516b0a771003b702c");
    ("laplace", 1., 3, "19f230a44de9703516b0a771003b702c");
    ("laplace", 10., 1, "7206910f35ff0a4ff200c4f3f59279a6");
    ("laplace", 10., 2, "7206910f35ff0a4ff200c4f3f59279a6");
    ("laplace", 10., 3, "7206910f35ff0a4ff200c4f3f59279a6");
    ("stencil", 1., 1, "718dae046df0d3698373e88160244517");
    ("stencil", 1., 2, "718dae046df0d3698373e88160244517");
    ("stencil", 1., 3, "718dae046df0d3698373e88160244517");
    ("stencil", 10., 1, "9c350ae15937092e7bbeb6b2132de13d");
    ("stencil", 10., 2, "f9f8bd73cd64dc48d0de87c31fe4def6");
    ("stencil", 10., 3, "f9f8bd73cd64dc48d0de87c31fe4def6");
    ("fork-join", 1., 1, "b3b04352933d5d217309bfac6cea29fd");
    ("fork-join", 1., 2, "b3b04352933d5d217309bfac6cea29fd");
    ("fork-join", 1., 3, "b3b04352933d5d217309bfac6cea29fd");
    ("fork-join", 10., 1, "e7b795941b1e0e12e6d923b47db5dcd3");
    ("fork-join", 10., 2, "e7b795941b1e0e12e6d923b47db5dcd3");
    ("fork-join", 10., 3, "e7b795941b1e0e12e6d923b47db5dcd3");
    ("doolittle", 1., 1, "7243e61447fbcf302aec8352aa8b84a2");
    ("doolittle", 1., 2, "7243e61447fbcf302aec8352aa8b84a2");
    ("doolittle", 1., 3, "7243e61447fbcf302aec8352aa8b84a2");
    ("doolittle", 10., 1, "2e8ed8e2896c10c8e6248f6930ad7b8d");
    ("doolittle", 10., 2, "2e8ed8e2896c10c8e6248f6930ad7b8d");
    ("doolittle", 10., 3, "2e8ed8e2896c10c8e6248f6930ad7b8d");
    ("ldmt", 1., 1, "cef9dcdcd45beb4dc9e9621e01189f56");
    ("ldmt", 1., 2, "cef9dcdcd45beb4dc9e9621e01189f56");
    ("ldmt", 1., 3, "cef9dcdcd45beb4dc9e9621e01189f56");
    ("ldmt", 10., 1, "e44739012d664b64f8ef3bb00e89cd44");
    ("ldmt", 10., 2, "e44739012d664b64f8ef3bb00e89cd44");
    ("ldmt", 10., 3, "e44739012d664b64f8ef3bb00e89cd44");
  ]

let pinned_dup_schedules () =
  let plat = O.Platform.paper_platform () in
  List.iter
    (fun (tb_name, ccr, limit, expect) ->
      let tb = O.Suite.find tb_name in
      let g = tb.O.Suite.build ~n:(max 30 tb.O.Suite.min_n) ~ccr in
      let params = O.Params.with_dup_limit O.Params.default limit in
      Alcotest.(check string)
        (Printf.sprintf "%s ccr %g limit %d" tb_name ccr limit)
        expect
        (O.Export.fingerprint (O.Heft_dup.schedule ~params plat g)))
    dup_goldens

(* ---- online: a crash replays surviving replicas instead of
   re-planning their tasks ---- *)

let online_crash_keeps_replicas () =
  let module E = O.Online_event in
  let module D = O.Online_driver in
  let plat = O.Platform.paper_platform () in
  let job = E.job ~ccr:1. "fork-join" 100 in
  let config = { D.default_config with D.heuristic = "heft-dup" } in
  let arrive at j = { E.at; kind = E.Arrive j } in
  let probe = D.run ~config plat [ arrive 0. job ] in
  (match probe.D.schedule with
  | Some s ->
      check_bool "the initial plan duplicates" true (O.Schedule.has_dups s)
  | None -> Alcotest.fail "no plan");
  let m = probe.D.makespan in
  let o =
    D.run ~config plat
      [ arrive 0. job; { E.at = 0.5 *. m; kind = E.Crash 1 } ]
  in
  check_int "the job still completes" 1 o.D.completed;
  match o.D.schedule with
  | Some s ->
      check_bool "surviving replicas are replayed" true
        (O.Schedule.has_dups s);
      (match O.Validate.check s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "post-crash plan invalid: %s" (List.hd msgs))
  | None -> Alcotest.fail "no post-crash plan"

let suite =
  [
    Alcotest.test_case "round-trip: single-copy schedules are unchanged"
      `Quick roundtrip;
    Alcotest.test_case "validate: unfed duplicate copy is rejected" `Quick
      validate_unfed_copy;
    Alcotest.test_case "validate: orphan chain is rejected" `Quick
      validate_orphan_chain;
    Alcotest.test_case "pinned FORK-JOIN: heft-dup beats heft" `Quick
      pinned_win;
    Alcotest.test_case "dup_limit knob: every setting stays valid" `Quick
      limits;
    Alcotest.test_case "heft-dup schedules match their pinned fingerprints"
      `Quick pinned_dup_schedules;
    Alcotest.test_case "online: a crash keeps surviving replicas" `Quick
      online_crash_keeps_replicas;
  ]
