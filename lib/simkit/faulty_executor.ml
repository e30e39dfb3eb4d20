module Schedule = Sched.Schedule
module Rng = Prelude.Rng

type stats = { retries : int; backoff_time : float; deferred : int }

type outcome =
  | Completed of { trace : Executor.trace; stats : stats }
  | Stranded of {
      stranded : int list;
      events_fired : int;
      total_events : int;
      partial_makespan : float;
      stats : stats;
    }

(* Mirrors Executor.run event for event; the fault hooks sit exactly at
   the dispatch point, so an empty scenario replays the fault-free
   arithmetic bit for bit. *)
let run ?rng ?(task_jitter = 0.) ?(comm_jitter = 0.) ~faults s =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0 in
  let p = Platform.p (Schedule.platform s) in
  List.iter (Fault.validate ~p) faults;
  (* --- scenario tables --- *)
  let crashes = Array.make p [] in
  let rejoins = Array.make p [] in
  let degrade = Array.make p 1. in
  let outages = Array.make p [] in
  let flaky = ref None in
  List.iter
    (function
      | Fault.Crash { proc; at } -> crashes.(proc) <- at :: crashes.(proc)
      | Fault.Rejoin { proc; at } -> rejoins.(proc) <- at :: rejoins.(proc)
      | Fault.Outage { proc; from_; until } ->
          outages.(proc) <- (from_, until) :: outages.(proc)
      | Fault.Degrade { proc; factor } -> degrade.(proc) <- degrade.(proc) *. factor
      | Fault.Flaky { prob; max_retries; backoff } ->
          if !flaky = None then flaky := Some (prob, max_retries, backoff))
    faults;
  Array.iteri (fun q l -> outages.(q) <- List.sort compare l) outages;
  (* Down windows per processor: each crash opens [c, r) where r is the
     first rejoin strictly after c (or forever without one).  Crucially a
     rejoin closes the window for *new* work only — anything the static
     plan dispatched inside the window is lost, never silently resumed on
     the rejoined processor; recovering it takes an explicit repair
     decision (Repair / lib/online).  Without rejoins this degenerates to
     the historical single [min crash, +inf) window. *)
  let down = Array.make p [] in
  for q = 0 to p - 1 do
    let rec pair cs rs acc =
      match cs with
      | [] -> List.rev acc
      | c :: cs' -> (
          match List.filter (fun r -> r > c) rs with
          | [] -> List.rev ((c, infinity) :: acc)
          | r :: _ -> pair (List.filter (fun c2 -> c2 >= r) cs') rs ((c, r) :: acc))
    in
    down.(q) <- pair (List.sort compare crashes.(q)) (List.sort compare rejoins.(q)) []
  done;
  (* --- the decision graph and this run's FIFO state --- *)
  let d = Decisions.build s in
  let n = d.n_tasks and total = Decisions.n_nodes d in
  let deps_remaining = Decisions.in_degrees d in
  let cursor = Array.make (Array.length d.streams) 0 in
  let free_at = Array.make (Array.length d.streams) 0. in
  let ready_time = Array.make total 0. in
  let fired = Array.make total false in
  let running =
    Prelude.Pqueue.create ~compare:(fun (t1, n1) (t2, n2) ->
        match compare (t1 : float) t2 with 0 -> compare n1 n2 | c -> c)
  in
  let events_fired = ref 0 in
  let task_starts = Array.make n infinity in
  (* a duplicated task completes at its earliest surviving copy's finish *)
  let task_fin = Array.make n infinity in
  let retries = ref 0 in
  let backoff_time = ref 0. in
  let deferred = ref 0 in
  let at_head node r =
    let order = d.streams.(r) in
    cursor.(r) < Array.length order && order.(cursor.(r)) = node
  in
  let can_fire node =
    (not fired.(node))
    && deps_remaining.(node) = 0
    && List.for_all (at_head node) d.node_streams.(node)
  in
  (* Outage deferral to a fixpoint: escaping one window may land inside
     another (possibly on the other endpoint of a hop). *)
  let rec defer procs t =
    let t' =
      List.fold_left
        (fun t q ->
          List.fold_left
            (fun t (a, b) -> if t >= a && t < b then b else t)
            t outages.(q))
        t procs
    in
    if t' > t then defer procs t' else t
  in
  (* the new heads of this node's FIFOs are now candidates *)
  let rec fire_heads node =
    List.iter
      (fun r ->
        if cursor.(r) < Array.length d.streams.(r) then
          try_fire d.streams.(r).(cursor.(r)))
      d.node_streams.(node)
  and try_fire node =
    if can_fire node then begin
      let start0 =
        List.fold_left (fun acc r -> max acc free_at.(r)) ready_time.(node)
          d.node_streams.(node)
      in
      (* the compute element a task dispatch runs on, for crash windows *)
      let q = d.proc.(node) in
      let is_compute = q >= 0 in
      let c = if is_compute then None else Some d.comms.(node - n) in
      (* every processor a dispatch must find alive and out of blackout *)
      let procs =
        match c with
        | Some c -> [ c.Schedule.src_proc; c.Schedule.dst_proc ]
        | None -> [ q ]
      in
      let start = defer procs start0 in
      if start > start0 then incr deferred;
      (* duration under jitter and link degradation *)
      let dur =
        match c with
        | None ->
            if task_jitter > 0. then
              d.duration.(node) *. (1. +. Rng.float rng task_jitter)
            else d.duration.(node)
        | Some c ->
            let dur =
              if comm_jitter > 0. then
                d.duration.(node) *. (1. +. Rng.float rng comm_jitter)
              else d.duration.(node)
            in
            dur *. degrade.(c.Schedule.src_proc) *. degrade.(c.Schedule.dst_proc)
      in
      (* a crashed compute element kills whatever it is running when the
         crash hits and runs nothing dispatched inside a down window —
         even if the processor later rejoins, that work stays lost.  A
         duplicated task merely loses that copy; it completes as long as
         some replica survives. *)
      let killed =
        is_compute
        && List.exists
             (fun (a, b) ->
               (start >= a && start < b) || (start < a && start +. dur > a))
             down.(q)
      in
      (* flaky transmission: bounded retries with exponential backoff;
         [None] = the hop exhausted its budget and the data is lost *)
      let transmission =
        if killed then None
        else if (not is_compute) && d.duration.(node) > 0. then
          match !flaky with
          | None -> Some (dur, 0, 0.)
          | Some (prob, max_retries, backoff) ->
              let rec attempt i elapsed paused =
                if Rng.float rng 1. < prob then
                  if i >= max_retries then None
                  else begin
                    let pause = Float.ldexp backoff i in
                    attempt (i + 1) (elapsed +. dur +. pause) (paused +. pause)
                  end
                else Some (elapsed +. dur, i, paused)
              in
              attempt 0 0. 0.
        else Some (dur, 0, 0.)
      in
      fired.(node) <- true;
      match transmission with
      | None ->
          (* lost work is cancelled: vacate every FIFO position without
             occupying time so unrelated traffic keeps flowing, but never
             complete — dependents stay blocked and strand *)
          List.iter (fun r -> cursor.(r) <- cursor.(r) + 1) d.node_streams.(node);
          fire_heads node
      | Some (elapsed, n_retries, paused) ->
          incr events_fired;
          if n_retries > 0 then begin
            retries := !retries + n_retries;
            backoff_time := !backoff_time +. paused;
            for _ = 1 to n_retries do
              Obs.Counters.(bump retries)
            done;
            Obs.Counters.backoff paused
          end;
          let finish = start +. elapsed in
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
          fire_heads node
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
  let stats =
    { retries = !retries; backoff_time = !backoff_time; deferred = !deferred }
  in
  let makespan =
    Array.fold_left (fun m f -> if f < infinity && f > m then f else m) 0. task_fin
  in
  (* A task completes when any of its copies does. *)
  let stranded = List.filter (fun v -> task_fin.(v) = infinity) (List.init n Fun.id) in
  if stranded = [] then
    Completed
      {
        trace = { Executor.makespan; task_starts; events_fired = !events_fired };
        stats;
      }
  else
    Stranded
      {
        stranded;
        events_fired = !events_fired;
        total_events = total;
        partial_makespan = makespan;
        stats;
      }
