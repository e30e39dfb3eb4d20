type edge = { id : int; src : int; dst : int; data : float }

type t = {
  name : string;
  weights : float array;
  edge_srcs : int array;
  edge_dsts : int array;
  edge_datas : float array;
  (* CSR adjacency: edge ids of successors of task v are
     [succ_ids.(succ_off.(v) .. succ_off.(v+1) - 1)]; same for preds. *)
  succ_off : int array;
  succ_ids : int array;
  pred_off : int array;
  pred_ids : int array;
  topo : int array;
}

let name g = g.name
let n_tasks g = Array.length g.weights
let n_edges g = Array.length g.edge_srcs
let weight g v = g.weights.(v)
let total_weight g = Array.fold_left ( +. ) 0. g.weights
let edge_src g e = g.edge_srcs.(e)
let edge_dst g e = g.edge_dsts.(e)
let edge_data g e = g.edge_datas.(e)

let edge g e =
  { id = e; src = g.edge_srcs.(e); dst = g.edge_dsts.(e); data = g.edge_datas.(e) }

let in_degree g v = g.pred_off.(v + 1) - g.pred_off.(v)
let out_degree g v = g.succ_off.(v + 1) - g.succ_off.(v)

let fold_pred_edges g v ~init ~f =
  let acc = ref init in
  for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    acc := f !acc g.pred_ids.(i)
  done;
  !acc

let fold_succ_edges g v ~init ~f =
  let acc = ref init in
  for i = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
    acc := f !acc g.succ_ids.(i)
  done;
  !acc

let iter_pred_edges g v ~f =
  for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    f g.pred_ids.(i)
  done

let iter_succ_edges g v ~f =
  for i = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
    f g.succ_ids.(i)
  done

let succ_first g v = g.succ_off.(v)
let succ_edge g i = g.succ_ids.(i)
let pred_first g v = g.pred_off.(v)
let pred_edge g i = g.pred_ids.(i)

let preds g v =
  List.rev (fold_pred_edges g v ~init:[] ~f:(fun acc e -> g.edge_srcs.(e) :: acc))

let succs g v =
  List.rev (fold_succ_edges g v ~init:[] ~f:(fun acc e -> g.edge_dsts.(e) :: acc))

let find_edge g ~src ~dst =
  let found = ref None in
  iter_succ_edges g src ~f:(fun e ->
      if g.edge_dsts.(e) = dst && !found = None then found := Some (edge g e));
  !found

let entry_tasks g =
  let acc = ref [] in
  for v = n_tasks g - 1 downto 0 do
    if in_degree g v = 0 then acc := v :: !acc
  done;
  !acc

let exit_tasks g =
  let acc = ref [] in
  for v = n_tasks g - 1 downto 0 do
    if out_degree g v = 0 then acc := v :: !acc
  done;
  !acc

let topological_order g = Array.copy g.topo

let edges g =
  List.init (n_edges g) (fun e -> edge g e)

(* Kahn's algorithm with a min-heap on task id: deterministic order, and a
   cycle check (fewer than n tasks emitted means a cycle). *)
let compute_topo ~n ~in_degree ~iter_succ =
  let order = Array.make n 0 in
  let remaining = Array.init n in_degree in
  let heap = Prelude.Pqueue.Int_heap.create () in
  for v = 0 to n - 1 do
    if remaining.(v) = 0 then Prelude.Pqueue.Int_heap.add heap v
  done;
  let count = ref 0 in
  let rec drain () =
    match Prelude.Pqueue.Int_heap.pop heap with
    | None -> ()
    | Some v ->
        order.(!count) <- v;
        incr count;
        iter_succ v (fun u ->
            remaining.(u) <- remaining.(u) - 1;
            if remaining.(u) = 0 then Prelude.Pqueue.Int_heap.add heap u);
        drain ()
  in
  drain ();
  if !count <> n then invalid_arg "Graph.create: cycle detected";
  order

let of_arrays ?(name = "graph") ~weights ~edge_srcs ~edge_dsts ~edge_datas () =
  let n = Array.length weights in
  Array.iteri
    (fun v w ->
      if w < 0. || Float.is_nan w then
        invalid_arg (Printf.sprintf "Graph.create: negative weight on task %d" v))
    weights;
  let m = Array.length edge_srcs in
  if Array.length edge_dsts <> m || Array.length edge_datas <> m then
    invalid_arg "Graph.of_arrays: edge array length mismatch";
  for i = 0 to m - 1 do
    let src = edge_srcs.(i) and dst = edge_dsts.(i) and data = edge_datas.(i) in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Graph.create: edge endpoint out of range";
    if src = dst then invalid_arg "Graph.create: self-loop";
    if data < 0. || Float.is_nan data then
      invalid_arg "Graph.create: negative edge data"
  done;
  let build_csr ~endpoint =
    let off = Array.make (n + 1) 0 in
    for e = 0 to m - 1 do
      off.(endpoint e + 1) <- off.(endpoint e + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let ids = Array.make m 0 in
    let cursor = Array.copy off in
    for e = 0 to m - 1 do
      ids.(cursor.(endpoint e)) <- e;
      cursor.(endpoint e) <- cursor.(endpoint e) + 1
    done;
    (off, ids)
  in
  let succ_off, succ_ids = build_csr ~endpoint:(fun e -> edge_srcs.(e)) in
  (* Duplicate-edge detection in linear time: within one task's successor
     edges, each destination may appear once. *)
  (let last_src = Array.make n (-1) in
   for v = 0 to n - 1 do
     for i = succ_off.(v) to succ_off.(v + 1) - 1 do
       let d = edge_dsts.(succ_ids.(i)) in
       if last_src.(d) = v then invalid_arg "Graph.create: duplicate edge";
       last_src.(d) <- v
     done
   done);
  let pred_off, pred_ids = build_csr ~endpoint:(fun e -> edge_dsts.(e)) in
  let topo =
    compute_topo ~n
      ~in_degree:(fun v -> pred_off.(v + 1) - pred_off.(v))
      ~iter_succ:(fun v f ->
        for i = succ_off.(v) to succ_off.(v + 1) - 1 do
          f edge_dsts.(succ_ids.(i))
        done)
  in
  { name; weights; edge_srcs; edge_dsts; edge_datas; succ_off; succ_ids;
    pred_off; pred_ids; topo }

let create ?name ~weights ~edges () =
  let m = List.length edges in
  let edge_srcs = Array.make m 0
  and edge_dsts = Array.make m 0
  and edge_datas = Array.make m 0. in
  List.iteri
    (fun i (src, dst, data) ->
      edge_srcs.(i) <- src;
      edge_dsts.(i) <- dst;
      edge_datas.(i) <- data)
    edges;
  of_arrays ?name ~weights ~edge_srcs ~edge_dsts ~edge_datas ()

let with_data g ~f =
  let datas =
    Array.init (n_edges g) (fun e ->
        let d = f (edge g e) in
        if d < 0. || Float.is_nan d then
          invalid_arg "Graph.with_data: negative data";
        d)
  in
  { g with edge_datas = datas }

let disjoint_union gs =
  if gs = [] then invalid_arg "Graph.disjoint_union: empty list";
  let offsets = Array.make (List.length gs) 0 in
  let total =
    List.fold_left
      (fun (i, acc) g ->
        offsets.(i) <- acc;
        (i + 1, acc + n_tasks g))
      (0, 0) gs
    |> snd
  in
  let weights = Array.make (max total 1) 0. in
  let edge_acc = ref [] in
  List.iteri
    (fun i g ->
      let off = offsets.(i) in
      for v = 0 to n_tasks g - 1 do
        weights.(off + v) <- weight g v
      done;
      List.iter
        (fun (e : edge) ->
          edge_acc := (off + e.src, off + e.dst, e.data) :: !edge_acc)
        (edges g))
    gs;
  let name = String.concat "+" (List.map (fun g -> g.name) gs) in
  ( create ~name ~weights:(Array.sub weights 0 total) ~edges:(List.rev !edge_acc) (),
    offsets )

let check_invariants g =
  let n = n_tasks g and m = n_edges g in
  if Array.length g.succ_off <> n + 1 || Array.length g.pred_off <> n + 1 then
    invalid_arg "Graph: bad CSR offsets";
  if g.succ_off.(n) <> m || g.pred_off.(n) <> m then
    invalid_arg "Graph: CSR does not cover all edges";
  Array.iter (fun w -> if w < 0. then invalid_arg "Graph: negative weight") g.weights;
  for e = 0 to m - 1 do
    if g.edge_srcs.(e) = g.edge_dsts.(e) then invalid_arg "Graph: self-loop";
    if g.edge_datas.(e) < 0. then invalid_arg "Graph: negative data"
  done;
  (* The stored topological order must be a permutation respecting edges. *)
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) g.topo;
  Array.iter (fun p -> if p < 0 then invalid_arg "Graph: topo not a permutation") pos;
  for e = 0 to m - 1 do
    if pos.(g.edge_srcs.(e)) >= pos.(g.edge_dsts.(e)) then
      invalid_arg "Graph: topo order violates an edge"
  done

let pp fmt g =
  Format.fprintf fmt "@[<v>graph %S: %d tasks, %d edges, total weight %g@]"
    g.name (n_tasks g) (n_edges g) (total_weight g)
