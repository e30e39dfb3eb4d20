(* The shared decision graph; [succs] adds each resource stream, chained
   node to node, after the data edges. *)
type t = { d : Decisions.t; succs : int list array }

let build sched =
  let d = Decisions.build sched in
  let succs = Array.copy d.dependents in
  Array.iter
    (fun order ->
      for i = 1 to Array.length order - 1 do
        let a = order.(i - 1) and b = order.(i) in
        if a <> b then succs.(a) <- b :: succs.(a)
      done)
    d.streams;
  { d; succs }

let n_events t = Decisions.n_nodes t.d

let retime t ~task_duration ~hop_duration =
  let d = t.d in
  let m = n_events t in
  let duration node =
    let v = d.task.(node) in
    if v >= 0 then task_duration v d.duration.(node)
    else hop_duration d.comms.(node - d.n_tasks) d.duration.(node)
  in
  let indeg = Array.make m 0 in
  Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.succs;
  let start = Array.make m 0. in
  let queue = Queue.create () in
  Array.iteri (fun node deg -> if deg = 0 then Queue.add node queue) indeg;
  let processed = ref 0 in
  (* A duplicated task completes at its earliest copy's finish, so the
     makespan is max over tasks of min over copies. *)
  let task_fin = Array.make d.n_tasks infinity in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    incr processed;
    let finish = start.(node) +. duration node in
    let v = d.task.(node) in
    if v >= 0 && finish < task_fin.(v) then task_fin.(v) <- finish;
    List.iter
      (fun b ->
        if finish > start.(b) then start.(b) <- finish;
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then Queue.add b queue)
      t.succs.(node)
  done;
  if !processed <> m then
    invalid_arg "Pert.retime: cyclic event order (corrupt schedule)";
  Array.fold_left Float.max 0. task_fin

let compacted_makespan t =
  retime t ~task_duration:(fun _ d -> d) ~hop_duration:(fun _ d -> d)
