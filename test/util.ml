(* Shared helpers for the test suites. *)

module O = Onesched

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Property tests run from a pinned seed so the suite is reproducible
   run to run (and in CI) — the repo's determinism rule applies to its
   own tests too.  Explore fresh seeds with QCHECK_SEED=$RANDOM. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 20020422)
    | None -> 20020422
  in
  Random.State.make [| seed |]

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
    (QCheck2.Test.make ~count ?print ~name gen prop)

(* Deterministic random graphs: generate a seed and shape parameters, build
   with the library's own generators. *)
let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* shape = int_bound 3 in
    let* size = int_range 2 18 in
    return (seed, shape, size))

let build_graph (seed, shape, size) =
  let rng = O.Rng.create ~seed in
  match shape with
  | 0 ->
      O.Generators.erdos_renyi rng ~n:size ~edge_prob:0.3 ~max_weight:5
        ~max_data:6
  | 1 ->
      O.Generators.layered rng ~layers:(1 + (size / 4)) ~width:4 ~edge_prob:0.4
        ~max_weight:5 ~max_data:6
  | 2 -> O.Generators.out_tree rng ~n:size ~max_arity:3 ~max_weight:5 ~max_data:6
  | _ -> O.Generators.series_parallel rng ~depth:3 ~max_weight:5 ~max_data:6

let print_graph (seed, shape, size) =
  Printf.sprintf "graph(seed=%d,shape=%d,size=%d)" seed shape size

(* A pool of small platforms exercising hetero/homo and odd link costs. *)
let platforms =
  lazy
    [
      O.Platform.homogeneous ~p:2 ~link_cost:1.;
      O.Platform.homogeneous ~p:4 ~link_cost:3.;
      O.Platform.fully_connected ~cycle_times:[| 1.; 2.; 5. |] ~link_cost:2. ();
      O.Platform.paper_platform ();
      O.Platform.with_topology ~cycle_times:[| 1.; 1.; 2.; 3. |]
        ~links:[ (0, 1, 1.); (1, 2, 2.); (2, 3, 1.) ]
        ();
    ]

let platform_gen =
  QCheck2.Gen.(map (fun i -> List.nth (Lazy.force platforms) i) (int_bound 4))

let model_gen =
  QCheck2.Gen.(
    map (fun i -> List.nth O.Comm_model.all i)
      (int_bound (List.length O.Comm_model.all - 1)))

(* HEFT, or heft-dup with a duplication limit of 1 when [dup] holds, so
   simulator properties draw copy-set schedules as well as single-copy
   ones. *)
let heft_or_dup ~dup params plat g =
  if dup then O.Heft_dup.schedule ~params:(O.Params.with_dup_limit params 1) plat g
  else O.Heft.schedule ~params plat g

(* heft-dup on FORK-JOIN, n = 40, ccr 1: 42 tasks and 4 duplicate copies,
   for consumers that must see every copy, not just the primaries. *)
let dup_fork_join () =
  let g = (O.Suite.find "fork-join").O.Suite.build ~n:40 ~ccr:1. in
  heft_or_dup ~dup:true O.Params.default (O.Platform.paper_platform ()) g

let scheduler_checks_out ?(params = O.Params.default) plat g scheduler =
  let sched = scheduler params plat g in
  match O.Validate.check sched with
  | Ok () -> true
  | Error es ->
      Printf.printf "INVALID: %s\n" (String.concat "; " es);
      false
