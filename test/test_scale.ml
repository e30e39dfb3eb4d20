(* The supporting structures of the million-task path: the int-keyed
   ready heap against the generic Pqueue, [Graph.of_arrays] against the
   list-based constructor, and the validator's sweep against its
   reference. *)

module O = Onesched
open Onesched_oracle
open Util

(* ---------------- int-keyed ready heap ---------------- *)

let int_heap_tests =
  [
    qtest ~count:500 "Int_heap drains in Ranking_ref.compare_priority order"
      QCheck2.Gen.(
        list_size (int_range 1 64)
          (frequency
             [
               (* a small int range forces rank ties, exercising the id
                  tie-break; the specials probe the float order *)
               (6, map float_of_int (int_bound 30));
               ( 1,
                 oneofl
                   [ 0.; -0.; Float.infinity; Float.neg_infinity; Float.nan;
                     -.Float.nan ] );
             ]))
      (fun ranks_l ->
        let ranks = Array.of_list ranks_l in
        let n = Array.length ranks in
        let heap = Prelude.Pqueue.Int_heap.create ~rank:ranks () in
        for v = n - 1 downto 0 do
          Prelude.Pqueue.Int_heap.add heap v
        done;
        let drained = ref [] in
        while not (Prelude.Pqueue.Int_heap.is_empty heap) do
          drained := Prelude.Pqueue.Int_heap.pop_exn heap :: !drained
        done;
        let got = List.rev !drained in
        let expected =
          List.sort (Ranking_ref.compare_priority ranks) (List.init n Fun.id)
        in
        got = expected);
    Alcotest.test_case "ranks and ready order allocate at most 12 words per task"
      `Quick (fun () ->
        let g = (O.Suite.find "lu").O.Suite.build ~n:36 ~ccr:10. in
        let plat = O.Platform.paper_platform () in
        let run () =
          let priority = O.Ranking.upward g plat in
          Sys.opaque_identity (Heuristics.List_loop.decision_order ~priority g)
        in
        ignore (run ());
        (* settle the collector first, so that no cycle left over by an
           earlier test lands in the window *)
        Gc.full_major ();
        (* minor plus direct-to-major words: the arrays are large *)
        let words () =
          let minor, promoted, major = Gc.counters () in
          minor +. major -. promoted
        in
        let w0 = words () in
        ignore (run ());
        let per_task = (words () -. w0) /. float_of_int (O.Graph.n_tasks g) in
        if per_task > 12. then
          Alcotest.failf "%.1f words per task (bound 12)" per_task);
    Alcotest.test_case "Int_heap without keys serves ascending ints" `Quick
      (fun () ->
        let heap = Prelude.Pqueue.Int_heap.create () in
        List.iter (Prelude.Pqueue.Int_heap.add heap) [ 5; 1; 4; 1 + 2; 2 ];
        let out = ref [] in
        let rec drain () =
          match Prelude.Pqueue.Int_heap.pop heap with
          | None -> ()
          | Some v ->
              out := v :: !out;
              drain ()
        in
        drain ();
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !out))
  ]

(* ---------------- Graph.of_arrays ---------------- *)

let graph_arrays_tests =
  [
    qtest ~count:100 "of_arrays builds the same graph as create"
      QCheck2.Gen.(
        let* seed = int_bound 10_000 in
        let* layers = int_range 1 5 in
        let* width = int_range 1 6 in
        return (seed, layers, width))
      (fun (seed, layers, width) ->
        let rng = O.Rng.create ~seed in
        let g =
          O.Generators.layered rng ~layers ~width ~edge_prob:0.5 ~max_weight:9
            ~max_data:20
        in
        let n = O.Graph.n_tasks g and m = O.Graph.n_edges g in
        let weights = Array.init n (O.Graph.weight g) in
        let edge_srcs = Array.init m (O.Graph.edge_src g) in
        let edge_dsts = Array.init m (O.Graph.edge_dst g) in
        let edge_datas = Array.init m (O.Graph.edge_data g) in
        let g' =
          O.Graph.of_arrays ~weights ~edge_srcs ~edge_dsts ~edge_datas ()
        in
        O.Graph.check_invariants g';
        O.Graph.edges g' = O.Graph.edges g
        && O.Graph.topological_order g' = O.Graph.topological_order g);
    Alcotest.test_case "of_arrays rejects mismatched arrays" `Quick (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Graph.of_arrays: edge array length mismatch")
          (fun () ->
            ignore
              (O.Graph.of_arrays ~weights:[| 1.; 1. |] ~edge_srcs:[| 0 |]
                 ~edge_dsts:[||] ~edge_datas:[||] ())))
  ]

(* ---------------- streaming Validate vs Reference ---------------- *)

(* The two checkers word their messages differently (and may report a
   different witness pair for the same overlap), so equivalence means
   verdict agreement. *)
let verdicts_agree sched =
  let streaming = Result.is_ok (O.Validate.check sched) in
  let reference = Result.is_ok (Validate_ref.check sched) in
  streaming = reference

(* The comm events delivering to a processor that holds an extra
   (non-primary) copy of their edge's consumer: the hops of chains that
   feed duplicates. *)
let hops_feeding_duplicates sched =
  let g = O.Schedule.graph sched in
  List.filter
    (fun i ->
      let c = O.Schedule.comm_at sched i in
      List.exists
        (fun (d : O.Schedule.placement) -> d.proc = c.O.Schedule.dst_proc)
        (O.Schedule.dup_copies sched (O.Graph.edge_dst g c.O.Schedule.edge)))
    (List.init (O.Schedule.n_comm_events sched) Fun.id)

let port_models =
  List.filter
    (fun m -> m.O.Comm_model.regime = O.Comm_model.Port)
    O.Comm_model.all

(* HEFT and ILHA on a random layered graph under any rung, or heft-dup
   (dup_limit 1-2, port rungs) on FORK-JOIN or a random layered graph,
   both at ccr 1 (layered volumes up to max_weight + 1, the rule of the
   "layered:L:W" testbeds). *)
let validate_gen =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* layers = int_range 2 6 in
    let* width = int_range 2 8 in
    let* model_i = int_bound (List.length O.Comm_model.all - 1) in
    let* kind = oneofl [ `Heft; `Ilha; `Heft_dup; `Heft_dup ] in
    let* fork_join = bool in
    let* limit = int_range 1 2 in
    let* mutation = int_bound 2 in
    return (seed, layers, width, model_i, kind, fork_join, limit, mutation))

let print_validate_case
    (seed, layers, width, model_i, kind, fork_join, limit, mutation) =
  Printf.sprintf "seed %d, %dx%d, model %d, %s, mutation %d" seed layers width
    model_i
    (match kind with
    | `Heft -> "heft"
    | `Ilha -> "ilha"
    | `Heft_dup ->
        Printf.sprintf "heft-dup on %s, dup_limit %d"
          (if fork_join then "fork-join" else "layered")
          limit)
    mutation

let validate_case (seed, layers, width, model_i, kind, fork_join, limit, mutation)
    =
  let layered max_data =
    O.Generators.layered (O.Rng.create ~seed) ~layers ~width ~edge_prob:0.4
      ~max_weight:9 ~max_data
  in
  let plat = O.Platform.paper_platform () in
  let sched =
    match kind with
    | `Heft_dup ->
        let g =
          if fork_join then
            (O.Suite.find "fork-join").O.Suite.build ~n:(4 * layers) ~ccr:1.
          else layered 10
        in
        let model =
          List.nth port_models (model_i mod List.length port_models)
        in
        let params = O.Params.with_dup_limit (O.Params.of_model model) limit in
        O.Heft_dup.schedule ~params plat g
    | (`Heft | `Ilha) as h ->
        let params = O.Params.of_model (List.nth O.Comm_model.all model_i) in
        if h = `Heft then O.Heft.schedule ~params plat (layered 20)
        else O.Ilha.schedule ~params plat (layered 20)
  in
  let pick l = List.nth l (seed mod List.length l) in
  match mutation with
  | 0 ->
      (* pristine: both checkers must accept *)
      Result.is_ok (O.Validate.check sched) && verdicts_agree sched
  | 1 ->
      (* drop one communication event (when any): a hop of a chain that
         feeds a duplicate if there is one, else any hop, or a BSP
         phase's event *)
      let nc = O.Schedule.n_comm_events sched in
      if nc = 0 then true
      else begin
        let victim =
          match hops_feeding_duplicates sched with
          | [] -> seed mod nc
          | l -> pick l
        in
        O.Schedule.filter_commsi sched ~keep:(fun i _ -> i <> victim);
        verdicts_agree sched
      end
  | _ ->
      (* unplace a duplicate copy if there is one, else a task *)
      let n = O.Graph.n_tasks (O.Schedule.graph sched) in
      (match
         List.filter
           (fun v -> O.Schedule.dup_copies sched v <> [])
           (List.init n Fun.id)
       with
      | [] -> O.Schedule.unplace_task sched (seed mod n)
      | dups ->
          let v = pick dups in
          let c = List.hd (O.Schedule.dup_copies sched v) in
          O.Schedule.unplace_copy sched ~task:v ~proc:c.O.Schedule.proc);
      verdicts_agree sched

let validate_tests =
  [
    qtest ~count:120 "streaming validator agrees with Reference"
      ~print:print_validate_case validate_gen validate_case;
    Alcotest.test_case "streaming validator catches handmade violations"
      `Quick
      (fun () ->
        (* the broken-schedule constructions of test_schedule and
           test_duplication, plus chain rules, each checked as built and
           as a copy-set (with a late spare copy of task 0 on processor
           2), against both implementations *)
        let graph data =
          O.Graph.create ~name:"chain"
            ~weights:[| 1.; 1. |]
            ~edges:[ (0, 1, data) ]
            ()
        in
        let check_both name ~data ~expect_ok build =
          List.iter
            (fun spare ->
              let s =
                O.Schedule.create ~graph:(graph data)
                  ~platform:(O.Platform.homogeneous ~p:3 ~link_cost:1.)
                  ~model:O.Comm_model.one_port ()
              in
              build s;
              if spare then O.Schedule.place_copy s ~task:0 ~proc:2 ~start:100.;
              let name = if spare then name ^ ", copy-set" else name in
              Alcotest.(check bool)
                (name ^ " (streaming)") expect_ok
                (Result.is_ok (O.Validate.check s));
              Alcotest.(check bool)
                (name ^ " (reference)") expect_ok
                (Result.is_ok (Validate_ref.check s)))
            [ false; true ]
        in
        let place = O.Schedule.place_task and comm = O.Schedule.add_comm in
        check_both "valid chain" ~data:2. ~expect_ok:true (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let a = comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
            place s ~task:1 ~proc:1 ~start:a);
        check_both "local precedence violation" ~data:2. ~expect_ok:false
          (fun s ->
            place s ~task:1 ~proc:0 ~start:0.;
            place s ~task:0 ~proc:0 ~start:3.);
        check_both "missing communication" ~data:2. ~expect_ok:false (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            place s ~task:1 ~proc:1 ~start:1.);
        check_both "start before arrival" ~data:2. ~expect_ok:false (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let _ = comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
            place s ~task:1 ~proc:1 ~start:2.);
        check_both "orphan chain" ~data:1. ~expect_ok:false (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let _ = comm s ~edge:0 ~src_proc:2 ~dst_proc:1 ~start:1. in
            place s ~task:1 ~proc:1 ~start:2.);
        check_both "unfed copy" ~data:2. ~expect_ok:false (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let a = comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
            place s ~task:1 ~proc:1 ~start:a;
            O.Schedule.place_copy s ~task:1 ~proc:2 ~start:50.);
        check_both "chain ends where the consumer has no copy" ~data:2.
          ~expect_ok:false (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let a = comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
            place s ~task:1 ~proc:1 ~start:a;
            let _ = comm ~head:true s ~edge:0 ~src_proc:0 ~dst_proc:2 ~start:a in
            ());
        check_both "zero-data chain arrives late" ~data:0. ~expect_ok:false
          (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let _ = comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:5. in
            place s ~task:1 ~proc:1 ~start:2.);
        check_both "local edge carries an event" ~data:2. ~expect_ok:false
          (fun s ->
            place s ~task:0 ~proc:0 ~start:0.;
            let _ = comm s ~edge:0 ~src_proc:0 ~dst_proc:1 ~start:1. in
            place s ~task:1 ~proc:0 ~start:1.));
  ]

(* ---------------- the occupancy sweep vs brute force ---------------- *)

(* The validator's tolerance. *)
let eps = 1e-9

(* The pairwise rule: of two intervals on one resource, take first the
   one starting earlier (the longer one on equal starts); they overlap
   when the other starts more than [eps] before its finish. *)
let pair_overlaps (sa, fa) (sb, fb) =
  let f1, s2 =
    if sa < sb || (sa = sb && fa >= fb) then (fa, sb) else (fb, sa)
  in
  s2 < f1 -. eps

(* Resources holding an overlapping pair, by the O(n^2) check. *)
let brute_force_resources res start finish =
  let n = Array.length res in
  let bad = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        res.(i) = res.(j)
        && pair_overlaps (start.(i), finish.(i)) (start.(j), finish.(j))
      then bad := res.(i) :: !bad
    done
  done;
  List.sort_uniq compare !bad

(* Several resources; starts on a small grid, mostly exact so runs of
   equal starts are common, else nudged by sub-eps and eps-sized
   amounts; lengths from zero and sub-eps up to intervals spanning
   most of the grid. *)
let intervals_gen =
  QCheck2.Gen.(
    let* n_res = int_range 1 4 in
    let* n = int_range 0 30 in
    list_repeat n
      (triple (int_bound (n_res - 1))
         (map2
            (fun base jitter -> float_of_int base +. jitter)
            (int_bound 8)
            (oneofl [ 0.; 0.; 0.; 4e-10; 1e-9; 1.6e-9; 0.5 ]))
         (oneofl [ 0.; 3e-10; 1e-9; 1.5e-9; 0.5; 1.; 2.5; 20. ])))

let print_intervals l =
  String.concat "; "
    (List.map (fun (r, s, len) -> Printf.sprintf "r%d [%h,+%h)" r s len) l)

let sweep_tests =
  [
    qtest ~count:1000 "sweep agrees with the pairwise check"
      ~print:print_intervals intervals_gen (fun l ->
        let res = Array.of_list (List.map (fun (r, _, _) -> r) l) in
        let start = Array.of_list (List.map (fun (_, s, _) -> s) l) in
        let finish = Array.of_list (List.map (fun (_, s, len) -> s +. len) l) in
        let expect = brute_force_resources res start finish in
        let reports = O.Validate.sweep_overlaps ~res ~start ~finish in
        (* every report is a real overlap on its resource *)
        List.for_all
          (fun (r, a, b) ->
            a <> b && res.(a) = r && res.(b) = r
            && pair_overlaps (start.(a), finish.(a)) (start.(b), finish.(b)))
          reports
        && List.sort_uniq compare (List.map (fun (r, _, _) -> r) reports)
           = expect
        (* the list-based check agrees resource by resource, whatever
           the input order *)
        && List.for_all
             (fun rev ->
               let flagged = ref [] in
               for r = 0 to Array.fold_left max (-1) res do
                 let on_r =
                   List.filter_map
                     (fun i ->
                       if res.(i) = r then
                         Some (start.(i), finish.(i), string_of_int i)
                       else None)
                     (List.init (Array.length res) Fun.id)
                 in
                 Validate_ref.check_disjoint
                   (if rev then List.rev on_r else on_r)
                   ~on_overlap:(fun (s1, f1, _) (s2, f2, _) ->
                     if not (pair_overlaps (s1, f1) (s2, f2)) then
                       Alcotest.failf "check_disjoint: false overlap";
                     flagged := r :: !flagged)
               done;
               List.sort_uniq compare !flagged = expect)
             [ false; true ]);
    Alcotest.test_case "an equal-start overlap is seen whatever the tie order"
      `Quick (fun () ->
        (* [0, 10) and [0, 5e-10) start together.  Compared short one
           first, the short one's finish hides the overlap; longest
           first, the pair is reported. *)
        Alcotest.(check (list (triple int int int)))
          "sweep" [ (0, 0, 1) ]
          (O.Validate.sweep_overlaps ~res:[| 0; 0 |] ~start:[| 0.; 0. |]
             ~finish:[| 10.; 5e-10 |]);
        let seen = ref [] in
        Validate_ref.check_disjoint
          [ (0., 5e-10, "short"); (0., 10., "long") ]
          ~on_overlap:(fun (_, _, a) (_, _, b) -> seen := (a, b) :: !seen);
        Alcotest.(check (list (pair string string)))
          "check_disjoint" [ ("long", "short") ] !seen);
  ]

let suite =
  int_heap_tests @ graph_arrays_tests @ validate_tests @ sweep_tests
