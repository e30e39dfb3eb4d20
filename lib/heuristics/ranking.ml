module Graph = Taskgraph.Graph

(* How a task's weight becomes time in a rank: [Scaled k] is [w *. k],
   [Averaged (p, speed)] is [p *. w /. speed] — the same operations as
   [Platform.avg_execution_time], so the ranks stay bit-identical — and
   [Per_task cost] ignores the weight and reads [cost.(v)]. *)
type task_cost =
  | Scaled of float
  | Averaged of float * float
  | Per_task of float array

(* Bottom levels, closure-free: the successor CSR range is walked in
   place and [best] is a local float ref, so nothing is allocated per
   task or per edge.  An edge costs [data *. l] under [~link:(Some l)]
   and nothing under [~link:None]. *)
let bottom_up g ~task ~link =
  let n = Graph.n_tasks g in
  let rank = Array.make n 0. in
  let order = Graph.topological_order g in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    let best = ref 0. in
    for k = Graph.succ_first g v to Graph.succ_first g (v + 1) - 1 do
      let e = Graph.succ_edge g k in
      let edge_cost =
        match link with None -> 0. | Some l -> Graph.edge_data g e *. l
      in
      let c = edge_cost +. rank.(Graph.edge_dst g e) in
      if c > !best then best := c
    done;
    let w = Graph.weight g v in
    let task_cost =
      match task with
      | Scaled k -> w *. k
      | Averaged (p, speed) -> p *. w /. speed
      | Per_task cost -> cost.(v)
    in
    rank.(v) <- task_cost +. !best
  done;
  rank

type averaging = Balanced | Arithmetic | Optimistic

let balanced plat =
  Averaged (float_of_int (Platform.p plat), Platform.aggregate_speed plat)

let upward ?(averaging = Balanced) g plat =
  let task =
    match averaging with
    | Balanced -> balanced plat
    | Arithmetic ->
        Scaled (Prelude.Stats.mean (Array.to_list (Platform.cycle_times plat)))
    | Optimistic -> Scaled (Platform.min_cycle_time plat)
  in
  bottom_up g ~task ~link:(Some (Platform.avg_link_cost plat))

(* Top levels, closure-free like [bottom_up]: the predecessor CSR range
   is walked in place, and a predecessor's averaged execution time is
   [Platform.avg_execution_time]'s [p *. w /. speed] with [p] and
   [speed] read once. *)
let downward g plat =
  let avg_link = Platform.avg_link_cost plat in
  let p = float_of_int (Platform.p plat)
  and speed = Platform.aggregate_speed plat in
  let n = Graph.n_tasks g in
  let rank = Array.make n 0. in
  let order = Graph.topological_order g in
  for i = 0 to n - 1 do
    let v = order.(i) in
    for k = Graph.pred_first g v to Graph.pred_first g (v + 1) - 1 do
      let e = Graph.pred_edge g k in
      let u = Graph.edge_src g e in
      let c =
        rank.(u)
        +. (p *. Graph.weight g u /. speed)
        +. (Graph.edge_data g e *. avg_link)
      in
      if c > rank.(v) then rank.(v) <- c
    done
  done;
  rank

let upward_min g plat =
  bottom_up g
    ~task:(Scaled (Platform.min_cycle_time plat))
    ~link:(Some (Platform.avg_link_cost plat))

let static_level g plat = bottom_up g ~task:(balanced plat) ~link:None
