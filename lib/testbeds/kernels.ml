module Graph = Taskgraph.Graph

(* Every kernel communicates the data its source task just produced, so
   the edge volume is always [ccr * w(src)] (§5.2). *)
let build ~name ~weights ~links ~ccr =
  let edges = List.map (fun (src, dst) -> (src, dst, ccr *. weights.(src))) links in
  Graph.create ~name ~weights ~edges ()

(* The large-instance kernels (lu / laplace / stencil are the testbeds
   [schedcli run] and the claims executable push to 10^5-10^6 tasks) fill flat edge arrays in a
   count-then-fill pass and hand them to [Graph.of_arrays] — no
   association lists, no per-edge boxing.  [emit] must yield exactly
   [n_edges] (src, dst) pairs. *)
let build_arrays ~name ~weights ~n_edges ~emit ~ccr =
  let edge_srcs = Array.make n_edges 0 in
  let edge_dsts = Array.make n_edges 0 in
  let edge_datas = Array.make n_edges 0. in
  let k = ref 0 in
  emit (fun src dst ->
      edge_srcs.(!k) <- src;
      edge_dsts.(!k) <- dst;
      edge_datas.(!k) <- ccr *. weights.(src);
      incr k);
  assert (!k = n_edges);
  Graph.of_arrays ~name ~weights ~edge_srcs ~edge_dsts ~edge_datas ()

let fork_join ~n ~ccr =
  if n < 1 then invalid_arg "Kernels.fork_join: n < 1";
  (* task 0 = source, 1..n = intermediate, n+1 = sink *)
  let weights = Array.make (n + 2) 1. in
  let links =
    List.init n (fun i -> (0, i + 1)) @ List.init n (fun i -> (i + 1, n + 1))
  in
  build ~name:(Printf.sprintf "fork-join-%d" n) ~weights ~links ~ccr

let grid_id ~n i j = (i * n) + j

let laplace ~n ~ccr =
  if n < 1 then invalid_arg "Kernels.laplace: n < 1";
  let weights = Array.make (n * n) 1. in
  build_arrays
    ~name:(Printf.sprintf "laplace-%d" n)
    ~weights
    ~n_edges:(2 * n * (n - 1))
    ~emit:(fun add ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i > 0 then add (grid_id ~n (i - 1) j) (grid_id ~n i j);
          if j > 0 then add (grid_id ~n i (j - 1)) (grid_id ~n i j)
        done
      done)
    ~ccr

let stencil ~n ~ccr =
  if n < 1 then invalid_arg "Kernels.stencil: n < 1";
  let weights = Array.make (n * n) 1. in
  build_arrays
    ~name:(Printf.sprintf "stencil-%d" n)
    ~weights
    ~n_edges:(if n = 1 then 0 else (n - 1) * ((3 * n) - 2))
    ~emit:(fun add ->
      for i = 1 to n - 1 do
        for j = 0 to n - 1 do
          for dj = -1 to 1 do
            let j' = j + dj in
            if j' >= 0 && j' < n then add (grid_id ~n (i - 1) j') (grid_id ~n i j)
          done
        done
      done)
    ~ccr

(* Triangular update family over tasks (k, j), 1 <= k < j <= n: level k
   updates columns k+1..n.  The pivot information travels as a pipeline
   along the level ((k, j) -> (k, j+1)) rather than as a single broadcast —
   the fan-out form would serialise p-1 large messages through one send
   port every level and no one-port schedule could stay parallel (the
   classical systolic Gaussian-elimination DAGs are pipelined for exactly
   this reason).  Columns flow down between levels ((k, j) -> (k+1, j)). *)
let triangular ~name ~n ~level_weight ~ccr =
  if n < 2 then invalid_arg (name ^ ": n < 2");
  (* id (k, j): levels k = 1..n-1, j = k+1..n *)
  let offset = Array.make n 0 in
  let count = ref 0 in
  for k = 1 to n - 1 do
    offset.(k) <- !count;
    count := !count + (n - k)
  done;
  let id k j = offset.(k) + (j - k - 1) in
  let weights = Array.make !count 0. in
  for k = 1 to n - 1 do
    for j = k + 1 to n do
      weights.(id k j) <- level_weight k
    done
  done;
  let n_edges = ref 0 in
  for k = 1 to n - 1 do
    for j = k + 1 to n do
      if j + 1 <= n then incr n_edges;
      if k + 1 < j then incr n_edges
    done
  done;
  build_arrays
    ~name:(Printf.sprintf "%s-%d" name n)
    ~weights ~n_edges:!n_edges
    ~emit:(fun add ->
      for k = 1 to n - 1 do
        for j = k + 1 to n do
          if j + 1 <= n then add (id k j) (id k (j + 1));
          if k + 1 < j then add (id k j) (id (k + 1) j)
        done
      done)
    ~ccr

let lu ~n ~ccr =
  triangular ~name:"lu" ~n ~level_weight:(fun k -> float_of_int (n - k)) ~ccr

(* DOOLITTLE: same triangle but the work grows with the level (w = k) and
   a task consumes the two previous-level updates it overlaps (columns
   j-1 and j), so every level is immediately wide (row-oriented reduction). *)
let doolittle ~n ~ccr =
  if n < 2 then invalid_arg "Kernels.doolittle: n < 2";
  let offset = Array.make n 0 in
  let count = ref 0 in
  for k = 1 to n - 1 do
    offset.(k) <- !count;
    count := !count + (n - k)
  done;
  let id k j = offset.(k) + (j - k - 1) in
  let weights = Array.make !count 0. in
  for k = 1 to n - 1 do
    for j = k + 1 to n do
      weights.(id k j) <- float_of_int k
    done
  done;
  let links = ref [] in
  for k = 2 to n - 1 do
    for j = k + 1 to n do
      links := (id (k - 1) j, id k j) :: !links;
      links := (id (k - 1) (j - 1), id k j) :: !links
    done
  done;
  build ~name:(Printf.sprintf "doolittle-%d" n) ~weights
    ~links:(List.sort_uniq compare !links) ~ccr

(* Same pipelined triangle as [triangular] but the weight depends on the
   column distance j - k, not just the level, so it cannot reuse
   [level_weight]. *)
let cholesky ~n ~ccr =
  if n < 2 then invalid_arg "Kernels.cholesky: n < 2";
  let offset = Array.make n 0 in
  let count = ref 0 in
  for k = 1 to n - 1 do
    offset.(k) <- !count;
    count := !count + (n - k)
  done;
  let id k j = offset.(k) + (j - k - 1) in
  let weights = Array.make !count 0. in
  for k = 1 to n - 1 do
    for j = k + 1 to n do
      weights.(id k j) <- float_of_int (j - k)
    done
  done;
  let links = ref [] in
  for k = 1 to n - 1 do
    for j = k + 1 to n do
      if j + 1 <= n then links := (id k j, id k (j + 1)) :: !links;
      if k + 1 < j then links := (id k j, id (k + 1) j) :: !links
    done
  done;
  build ~name:(Printf.sprintf "cholesky-%d" n) ~weights ~links:(List.rev !links)
    ~ccr

(* LDMt: the wavefront triangle including the diagonal tasks (k, k) that
   compute D, with growing weights (w = k): (k, j) -> (k, j+1) pipelines
   the row of M^t, (k, j) -> (k+1, j) passes the updated column down. *)
let ldmt ~n ~ccr =
  if n < 2 then invalid_arg "Kernels.ldmt: n < 2";
  (* ids: levels k = 1..n-1, j = k..n (diagonal included) *)
  let offset = Array.make n 0 in
  let count = ref 0 in
  for k = 1 to n - 1 do
    offset.(k) <- !count;
    count := !count + (n - k + 1)
  done;
  let id k j = offset.(k) + (j - k) in
  let weights = Array.make !count 0. in
  for k = 1 to n - 1 do
    for j = k to n do
      weights.(id k j) <- float_of_int k
    done
  done;
  let links = ref [] in
  for k = 1 to n - 1 do
    for j = k to n do
      if j + 1 <= n then links := (id k j, id k (j + 1)) :: !links;
      if k + 1 <= n - 1 && j >= k + 1 then
        links := (id k j, id (k + 1) j) :: !links
    done
  done;
  build ~name:(Printf.sprintf "ldmt-%d" n) ~weights ~links:(List.rev !links) ~ccr
