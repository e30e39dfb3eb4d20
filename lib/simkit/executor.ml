type trace = {
  makespan : float;
  task_starts : float array;
  events_fired : int;
}

let run s =
  let d = Decisions.build s in
  let total = Decisions.n_nodes d in
  let deps_remaining = Decisions.in_degrees d in
  (* each resource's FIFO position and the time it frees up *)
  let cursor = Array.make (Array.length d.streams) 0 in
  let free_at = Array.make (Array.length d.streams) 0. in
  let ready_time = Array.make total 0. in
  let fired = Array.make total false in
  (* running events ordered by completion time (ties by node) *)
  let running =
    Prelude.Pqueue.create ~compare:(fun (t1, n1) (t2, n2) ->
        match compare (t1 : float) t2 with 0 -> compare n1 n2 | c -> c)
  in
  let events_fired = ref 0 in
  let task_starts = Array.make d.n_tasks infinity in
  (* a duplicated task completes at its earliest copy's finish *)
  let task_fin = Array.make d.n_tasks infinity in
  let at_head node r =
    let order = d.streams.(r) in
    cursor.(r) < Array.length order && order.(cursor.(r)) = node
  in
  let can_fire node =
    (not fired.(node))
    && deps_remaining.(node) = 0
    && List.for_all (at_head node) d.node_streams.(node)
  in
  (* Firing a node frees the head position of each of its FIFOs, so only
     its resource-successors and (on completion) its data dependents can
     become enabled: a worklist keeps the simulation near-linear. *)
  let rec try_fire node =
    if can_fire node then begin
      fired.(node) <- true;
      incr events_fired;
      let start =
        List.fold_left (fun acc r -> max acc free_at.(r)) ready_time.(node)
          d.node_streams.(node)
      in
      let finish = start +. d.duration.(node) in
      let v = d.task.(node) in
      if v >= 0 then begin
        if start < task_starts.(v) then task_starts.(v) <- start;
        if finish < task_fin.(v) then task_fin.(v) <- finish
      end;
      List.iter
        (fun r ->
          free_at.(r) <- finish;
          cursor.(r) <- cursor.(r) + 1)
        d.node_streams.(node);
      Prelude.Pqueue.add running (finish, node);
      (* the new heads of this node's FIFOs are now candidates *)
      List.iter
        (fun r ->
          if cursor.(r) < Array.length d.streams.(r) then
            try_fire d.streams.(r).(cursor.(r)))
        d.node_streams.(node)
    end
  in
  for node = 0 to total - 1 do
    try_fire node
  done;
  let rec step () =
    match Prelude.Pqueue.pop running with
    | None -> ()
    | Some (finish, node) ->
        List.iter
          (fun b ->
            deps_remaining.(b) <- deps_remaining.(b) - 1;
            if ready_time.(b) < finish then ready_time.(b) <- finish)
          d.dependents.(node);
        List.iter try_fire d.dependents.(node);
        step ()
  in
  step ();
  if !events_fired <> total then
    failwith
      (Printf.sprintf "Executor.run: deadlock after %d/%d events" !events_fired
         total);
  {
    makespan = Array.fold_left Float.max 0. task_fin;
    task_starts;
    events_fired = !events_fired;
  }
