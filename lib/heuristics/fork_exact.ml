module Graph = Taskgraph.Graph

type instance = {
  parent_weight : float;
  child_weights : float array;
  child_data : float array;
}

let of_graph g =
  let n = Graph.n_tasks g in
  if n < 1 then None
  else if Graph.entry_tasks g <> [ 0 ] then None
  else if Graph.n_edges g <> n - 1 then None
  else begin
    let ok = ref true in
    let data = Array.make (n - 1) 0. in
    for v = 1 to n - 1 do
      match Graph.find_edge g ~src:0 ~dst:v with
      | Some e -> data.(v - 1) <- e.data
      | None -> ok := false
    done;
    if !ok then
      Some
        {
          parent_weight = Graph.weight g 0;
          child_weights = Array.init (n - 1) (fun i -> Graph.weight g (i + 1));
          child_data = data;
        }
    else None
  end

let makespan inst ~assignment ~send_order =
  let n = Array.length inst.child_weights in
  if Array.length assignment <> n then invalid_arg "Fork_exact.makespan: arity";
  let w0 = inst.parent_weight in
  (* Parent's processor: parent plus local children back to back. *)
  let local =
    Array.to_list assignment
    |> List.mapi (fun i a -> (i, a))
    |> List.filter (fun (_, a) -> a = 0)
    |> List.map fst
  in
  let p0_finish =
    w0 +. List.fold_left (fun acc i -> acc +. inst.child_weights.(i)) 0. local
  in
  (* Sends go back to back from w0; group arrivals per remote processor and
     execute in arrival order. *)
  let remote_count = List.length send_order in
  if remote_count <> n - List.length local then
    invalid_arg "Fork_exact.makespan: send_order must cover remote children";
  let seen = Array.make n false in
  let clock = ref w0 in
  let proc_free = Hashtbl.create 8 in
  let best = ref p0_finish in
  List.iter
    (fun i ->
      if i < 0 || i >= n || assignment.(i) = 0 || seen.(i) then
        invalid_arg "Fork_exact.makespan: bad send_order";
      seen.(i) <- true;
      let arrival = !clock +. inst.child_data.(i) in
      clock := arrival;
      let proc = assignment.(i) in
      let free = try Hashtbl.find proc_free proc with Not_found -> 0. in
      let finish = max free arrival +. inst.child_weights.(i) in
      Hashtbl.replace proc_free proc finish;
      best := max !best finish)
    send_order;
  !best

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

(* With one processor available per remote child, grouping children on a
   shared remote processor only adds constraints, and for distinct
   receivers the optimal send order is by non-increasing child weight (an
   adjacent exchange with w_A >= w_B never increases
   max(prefix + d_A + w_A, prefix + d_A + d_B + w_B)).  So the exact
   optimum reduces to enumerating the subset kept on the parent's
   processor. *)
let optimal_unlimited inst =
  let n = Array.length inst.child_weights in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match compare inst.child_weights.(j) inst.child_weights.(i) with
      | 0 -> compare i j
      | c -> c)
    order;
  let best = ref infinity in
  (* Subsets as bitmasks: bit i set = child i stays on P0. *)
  for mask = 0 to (1 lsl n) - 1 do
    let p0_finish = ref inst.parent_weight in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then
        p0_finish := !p0_finish +. inst.child_weights.(i)
    done;
    let span = ref !p0_finish in
    let clock = ref inst.parent_weight in
    Array.iter
      (fun i ->
        if mask land (1 lsl i) = 0 then begin
          clock := !clock +. inst.child_data.(i);
          span := max !span (!clock +. inst.child_weights.(i))
        end)
      order;
    if !span < !best then best := !span
  done;
  !best

(* Enumerate assignments as restricted-growth strings: child i maps to 0
   (parent's processor) or to remote group g where g <= (max group so far) + 1
   and the number of remote groups stays below [max_remote]. *)
let optimal_makespan ?max_procs inst =
  let n = Array.length inst.child_weights in
  let max_remote =
    match max_procs with
    | None -> n
    | Some p when p >= 1 -> p - 1
    | Some _ -> invalid_arg "Fork_exact.optimal_makespan: max_procs < 1"
  in
  if max_remote >= n then
    (if n > 20 then
       invalid_arg "Fork_exact.optimal_makespan: more than 20 children"
     else if n = 0 then inst.parent_weight
     else optimal_unlimited inst)
  else begin
  if n > 8 then invalid_arg "Fork_exact.optimal_makespan: more than 8 children";
  let assignment = Array.make n 0 in
  let best = ref infinity in
  let evaluate () =
    let remote =
      List.filter (fun i -> assignment.(i) <> 0) (List.init n Fun.id)
    in
    List.iter
      (fun order ->
        let m = makespan inst ~assignment ~send_order:order in
        if m < !best then best := m)
      (permutations remote)
  in
  let rec enumerate i max_group =
    if i = n then evaluate ()
    else
      for a = 0 to min (max_group + 1) max_remote do
        assignment.(i) <- a;
        enumerate (i + 1) (max max_group a)
      done
  in
  if n = 0 then inst.parent_weight
  else begin
    enumerate 0 0;
    !best
  end
  end
