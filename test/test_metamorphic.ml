(* Metamorphic properties: transformations of an instance whose effect
   on the schedule is known exactly, checked on every registry
   heuristic. *)

module O = Onesched
open Util

(* [scaled k plat] is [plat] with every cycle time and link cost
   multiplied by [k]; both platforms drawn below are fully connected, so
   the link matrix is the hop-cost matrix. *)
let scaled k plat =
  let p = O.Platform.p plat in
  O.Platform.create
    ~cycle_times:(Array.map (fun c -> k *. c) (O.Platform.cycle_times plat))
    ~link:
      (Array.init p (fun src ->
           Array.init p (fun dst -> k *. O.Platform.link plat ~src ~dst)))
    ()

(* The paper platform, or a random heterogeneous one drawn from
   (seed, p, max cycle time, link cost). *)
let platform_of = function
  | None -> O.Platform.paper_platform ()
  | Some (seed, p, max_cycle, link) ->
      O.Platform.random_heterogeneous (O.Rng.create ~seed) ~p ~min_cycle:1
        ~max_cycle ~link_cost:(float_of_int link)

let print_case (tb, n, ccr, plat, model, k) =
  Printf.sprintf "%s n=%d ccr=%g %s %s x%g"
    (List.nth O.Suite.all tb).O.Suite.name n ccr
    (match plat with
    | None -> "paper platform"
    | Some (seed, p, max_cycle, link) ->
        Printf.sprintf "random_heterogeneous(seed=%d,p=%d,cycles=1..%d,link=%d)"
          seed p max_cycle link)
    (O.Comm_model.name model) k

let case_gen =
  QCheck2.Gen.(
    let* tb = int_bound (List.length O.Suite.all - 1)
    and* size = int_range 0 40
    and* ccr = oneofl [ 1.; 10. ]
    and* plat =
      option
        (tup4 (int_bound 1000) (int_range 2 9) (int_range 1 9) (int_range 1 5))
    and* model = oneofl [ O.Comm_model.one_port; O.Comm_model.macro_dataflow ]
    and* k = oneofl [ 2.; 4. ] in
    let n = max size (List.nth O.Suite.all tb).O.Suite.min_n in
    return (tb, n, ccr, plat, model, k))

let scaling_tests =
  [
    (* Multiplying every cycle time and link cost by a power of two
       multiplies every duration, slot and priority exactly, so every
       comparison a heuristic makes keeps its outcome and the makespan
       scales exactly — provided no tie rule mixes an absolute tolerance
       into relative ones.  Only scaling up is checked: ILHA's default
       chunk ([Load_balance.perfect_chunk]) needs integer cycle times
       and otherwise falls back to [B = p], so halving the paper
       platform's cycle times legitimately changes [ilha] and
       [ilha-auto]. *)
    qtest ~count:150
      "scaling cycle times and link costs by 2 or 4 scales the makespan"
      ~print:print_case case_gen
      (fun (tb, n, ccr, plat, model, k) ->
        let g = (List.nth O.Suite.all tb).O.Suite.build ~n ~ccr in
        let params = O.Params.of_model model in
        let plat = platform_of plat in
        let big = scaled k plat in
        List.for_all
          (fun (e : O.Registry.entry) ->
            let makespan plat =
              O.Schedule.makespan (e.O.Registry.scheduler params plat g)
            in
            makespan big = k *. makespan plat
            || QCheck2.Test.fail_reportf "%s: %g, not %g x %g"
                 e.O.Registry.name (makespan big) k (makespan plat))
          O.Registry.all);
  ]

let suite = scaling_tests
