module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule
module Comm_model = Commmodel.Comm_model

type t = {
  n_tasks : int;
  comms : Schedule.comm array;
  task : int array;
  proc : int array;
  duration : float array;
  dependents : int list array;
  streams : int array array;
  node_streams : int list array;
}

(* Resources an event occupies, as comparable keys. *)
type resource = Compute of int | Send of int | Recv of int | Link of int * int

let feed_eps = 1e-9

let build s =
  let g = Schedule.graph s in
  let model = Schedule.model s in
  let n = Graph.n_tasks g in
  let comms = Array.of_list (Schedule.comms s) in
  let k = Array.length comms in
  let total = n + k + Schedule.n_dup_copies s in
  let task = Array.make total (-1) and proc = Array.make total (-1) in
  let start = Array.make total 0. and duration = Array.make total 0. in
  let set node v (pl : Schedule.placement) =
    task.(node) <- v;
    proc.(node) <- pl.proc;
    start.(node) <- pl.start;
    duration.(node) <- pl.finish -. pl.start
  in
  (* Duplicate copies become nodes after the hops; the primary copy of
     every task keeps its historical node id. *)
  let copy_ix = Hashtbl.create 16 in
  let next = ref (n + k) in
  for v = 0 to n - 1 do
    set v v (Schedule.placement_exn s v);
    List.iter
      (fun (c : Schedule.placement) ->
        set !next v c;
        Hashtbl.add copy_ix (v, c.proc) !next;
        incr next)
      (Schedule.dup_copies s v)
  done;
  Array.iteri
    (fun i (c : Schedule.comm) ->
      start.(n + i) <- c.start;
      duration.(n + i) <- c.finish -. c.start)
    comms;
  (* The node running task [v]'s copy on [q]; the primary maps to [v]. *)
  let copy_node v q =
    if proc.(v) = q then v
    else match Hashtbl.find_opt copy_ix (v, q) with Some node -> node | None -> v
  in
  (* The representative (earliest-finishing, then lowest-processor) copy. *)
  let rep v =
    match Schedule.copies s v with
    | c :: rest ->
        List.fold_left
          (fun (b : Schedule.placement) (c : Schedule.placement) ->
            if c.finish < b.finish || (c.finish = b.finish && c.proc < b.proc) then c
            else b)
          c rest
    | [] -> Schedule.placement_exn s v
  in
  let dependents = Array.make total [] in
  let add_dep a b = if a <> b then dependents.(a) <- b :: dependents.(a) in
  let per_edge = Array.make (max (Graph.n_edges g) 1) [] in
  Array.iteri
    (fun i (c : Schedule.comm) ->
      per_edge.(c.edge) <- (n + i, Schedule.comm_head_at s i) :: per_edge.(c.edge))
    comms;
  List.iter
    (fun (e : Graph.edge) ->
      (* One provenance chain per remote delivery: a head hop (or the
         edge's first) leaves a source copy, the chain follows the route,
         and its last hop feeds the destination copy where it lands. *)
      let close last = add_dep last (copy_node e.dst comms.(last - n).dst_proc) in
      let rec chain prev = function
        | [] -> Option.iter close prev
        | (node, head) :: rest ->
            (match prev with
            | Some p when not head -> add_dep p node
            | _ ->
                Option.iter close prev;
                add_dep (copy_node e.src comms.(node - n).src_proc) node);
            chain (Some node) rest
      in
      chain None (List.rev per_edge.(e.id));
      (* every consumer copy also picks up its local / zero-data feed *)
      let data = Graph.edge_data g e.id in
      List.iter
        (fun (cv : Schedule.placement) ->
          let dst = copy_node e.dst cv.proc in
          if data = 0. then add_dep (copy_node e.src (rep e.src).proc) dst
          else
            match Schedule.copy_on s ~task:e.src ~proc:cv.proc with
            | Some cu when cu.finish <= cv.start +. feed_eps ->
                add_dep (copy_node e.src cu.proc) dst
            | _ -> ())
        (Schedule.copies s e.dst))
    (Graph.edges g);
  (* Resource streams: every event occupying one resource, ordered by its
     recorded start (ties by node id — only zero-duration events can
     tie).  Keys are inserted primaries first, then copies, then hops, and
     the streams keep the table's iteration order: random draws follow
     event order downstream, so both orders are part of the contract. *)
  let occupancy = Hashtbl.create 64 in
  let occupy r node =
    match Hashtbl.find_opt occupancy r with
    | Some q -> q := (start.(node), node) :: !q
    | None -> Hashtbl.add occupancy r (ref [ (start.(node), node) ])
  in
  for v = 0 to n - 1 do
    occupy (Compute proc.(v)) v
  done;
  for node = n + k to total - 1 do
    occupy (Compute proc.(node)) node
  done;
  (* Only port-regime events occupy whole-span resources.  BSP and
     latency+overhead events carry partial or no occupancy over their
     span, so chaining them on port streams would force compaction
     {e above} the scheduled times; they stay pure dependency events. *)
  (match model.Comm_model.regime with
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ -> ()
  | Comm_model.Port ->
      Array.iteri
        (fun i (c : Schedule.comm) ->
          let node = n + i in
          (match model.Comm_model.ports with
          | Comm_model.Unlimited -> ()
          | Comm_model.One_port_bidirectional ->
              occupy (Send c.src_proc) node;
              occupy (Recv c.dst_proc) node
          | Comm_model.One_port_unidirectional ->
              (* one physical port per processor: pool both directions *)
              occupy (Send c.src_proc) node;
              occupy (Send c.dst_proc) node);
          if model.Comm_model.link_contention then
            occupy (Link (min c.src_proc c.dst_proc, max c.src_proc c.dst_proc)) node;
          if not model.Comm_model.overlap then begin
            occupy (Compute c.src_proc) node;
            occupy (Compute c.dst_proc) node
          end)
        comms);
  let streams = Array.make (Hashtbl.length occupancy) [||] in
  let node_streams = Array.make total [] in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ q ->
      let order = Array.of_list (List.map snd (List.sort compare !q)) in
      Array.iter (fun node -> node_streams.(node) <- !i :: node_streams.(node)) order;
      streams.(!i) <- order;
      incr i)
    occupancy;
  { n_tasks = n; comms; task; proc; duration; dependents; streams; node_streams }

let n_nodes t = Array.length t.duration

let in_degrees t =
  let indeg = Array.make (n_nodes t) 0 in
  Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.dependents;
  indeg
