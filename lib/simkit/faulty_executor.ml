module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule
module Comm_model = Commmodel.Comm_model
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

type resource = Compute of int | Send of int | Recv of int | Link of int * int

let feed_eps = 1e-9

(* Mirrors Executor.run event for event; the fault hooks sit exactly at
   the dispatch point, so an empty scenario replays the fault-free
   arithmetic bit for bit. *)
let run ?rng ?(task_jitter = 0.) ?(comm_jitter = 0.) ~faults s =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0 in
  let g = Schedule.graph s in
  let model = Schedule.model s in
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
  let n = Graph.n_tasks g in
  let comms = Array.of_list (Schedule.comms s) in
  let k = Array.length comms in
  let nd = Schedule.n_dup_copies s in
  let copy_task = if nd = 0 then [||] else Array.make nd 0 in
  let copy_pl = Array.make (max nd 1) { Schedule.task = 0; proc = 0; start = 0.; finish = 0. } in
  let copy_ix = Hashtbl.create 16 in
  if nd > 0 then begin
    let j = ref 0 in
    for v = 0 to n - 1 do
      List.iter
        (fun (c : Schedule.placement) ->
          copy_task.(!j) <- v;
          copy_pl.(!j) <- c;
          Hashtbl.add copy_ix (v, c.proc) (n + k + !j);
          incr j)
        (Schedule.dup_copies s v)
    done
  end;
  let copy_node v q =
    if (Schedule.placement_exn s v).proc = q then v
    else match Hashtbl.find_opt copy_ix (v, q) with Some node -> node | None -> v
  in
  let total = n + k + nd in
  let duration = Array.make total 0. in
  let task_proc = Array.make n 0 in
  for v = 0 to n - 1 do
    let pl = Schedule.placement_exn s v in
    duration.(v) <- pl.Schedule.finish -. pl.Schedule.start;
    task_proc.(v) <- pl.Schedule.proc
  done;
  Array.iteri (fun i (c : Schedule.comm) -> duration.(n + i) <- c.finish -. c.start) comms;
  for j = 0 to nd - 1 do
    duration.(n + k + j) <- copy_pl.(j).Schedule.finish -. copy_pl.(j).Schedule.start
  done;
  (* --- data dependencies (same wiring as Executor) --- *)
  let dependents = Array.make total [] in
  let deps_remaining = Array.make total 0 in
  let add_dep a b =
    if a <> b then begin
      dependents.(a) <- b :: dependents.(a);
      deps_remaining.(b) <- deps_remaining.(b) + 1
    end
  in
  if nd = 0 then begin
    let per_edge = Array.make (max (Graph.n_edges g) 1) [] in
    Array.iteri (fun i (c : Schedule.comm) -> per_edge.(c.edge) <- (n + i) :: per_edge.(c.edge)) comms;
    List.iter
      (fun (e : Graph.edge) ->
        match List.rev per_edge.(e.id) with
        | [] -> add_dep e.src e.dst
        | hops ->
            let last =
              List.fold_left
                (fun prev hop ->
                  add_dep prev hop;
                  hop)
                e.src hops
            in
            add_dep last e.dst)
      (Graph.edges g)
  end
  else begin
    (* Copy-set wiring: one provenance chain per remote delivery, running
       source copy -> hops -> destination copy; consumer copies also pick
       up their local / zero-data feeds. *)
    let per_edge = Array.make (max (Graph.n_edges g) 1) [] in
    Array.iteri
      (fun i (c : Schedule.comm) ->
        per_edge.(c.edge) <- (n + i, Schedule.comm_head_at s i) :: per_edge.(c.edge))
      comms;
    let chains_of e =
      List.fold_left
        (fun acc (node, head) ->
          match acc with
          | cur :: rest when not head -> (node :: cur) :: rest
          | _ -> [ node ] :: acc)
        []
        (List.rev per_edge.(e))
      |> List.rev_map List.rev
    in
    List.iter
      (fun (e : Graph.edge) ->
        List.iter
          (fun chain ->
            let first = comms.(List.hd chain - n) in
            let last_node = List.nth chain (List.length chain - 1) in
            let last = comms.(last_node - n) in
            add_dep (copy_node e.src first.Schedule.src_proc) (List.hd chain);
            let rec seq = function
              | a :: (b :: _ as rest) ->
                  add_dep a b;
                  seq rest
              | [ _ ] | [] -> ()
            in
            seq chain;
            add_dep last_node (copy_node e.dst last.Schedule.dst_proc))
          (chains_of e.id);
        let data = Graph.edge_data g e.id in
        List.iter
          (fun (cv : Schedule.placement) ->
            if data = 0. then begin
              let rep =
                match Schedule.copies s e.src with
                | c :: rest ->
                    List.fold_left
                      (fun (b : Schedule.placement) (c : Schedule.placement) ->
                        if
                          c.finish < b.finish
                          || (c.finish = b.finish && c.proc < b.proc)
                        then c
                        else b)
                      c rest
                | [] -> Schedule.placement_exn s e.src
              in
              add_dep (copy_node e.src rep.proc) (copy_node e.dst cv.proc)
            end
            else
              match Schedule.copy_on s ~task:e.src ~proc:cv.proc with
              | Some cu when cu.finish <= cv.start +. feed_eps ->
                  add_dep (copy_node e.src cu.proc) (copy_node e.dst cv.proc)
              | _ -> ())
          (Schedule.copies s e.dst))
      (Graph.edges g)
  end;
  (* --- resource FIFOs in recorded start order --- *)
  let streams : (resource, (float * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  let occupy resource node start =
    let q =
      match Hashtbl.find_opt streams resource with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.add streams resource q;
          q
    in
    q := (start, node) :: !q
  in
  for v = 0 to n - 1 do
    let pl = Schedule.placement_exn s v in
    occupy (Compute pl.Schedule.proc) v pl.Schedule.start
  done;
  for j = 0 to nd - 1 do
    occupy (Compute copy_pl.(j).Schedule.proc) (n + k + j) copy_pl.(j).Schedule.start
  done;
  (* Mirrors Pert/Executor: only port-regime events occupy whole-span
     resources; BSP / latency+overhead events stay pure dependency
     events. *)
  (match model.Comm_model.regime with
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ -> ()
  | Comm_model.Port ->
      Array.iteri
        (fun i (c : Schedule.comm) ->
          let node = n + i in
          (match model.Comm_model.ports with
          | Comm_model.Unlimited -> ()
          | Comm_model.One_port_bidirectional ->
              occupy (Send c.src_proc) node c.start;
              occupy (Recv c.dst_proc) node c.start
          | Comm_model.One_port_unidirectional ->
              occupy (Send c.src_proc) node c.start;
              occupy (Send c.dst_proc) node c.start);
          if model.Comm_model.link_contention then
            occupy (Link (min c.src_proc c.dst_proc, max c.src_proc c.dst_proc)) node c.start;
          if not model.Comm_model.overlap then begin
            occupy (Compute c.src_proc) node c.start;
            occupy (Compute c.dst_proc) node c.start
          end)
        comms);
  let node_resources = Array.make total [] in
  let fifo : (resource, int array) Hashtbl.t = Hashtbl.create 64 in
  let cursor : (resource, int ref) Hashtbl.t = Hashtbl.create 64 in
  let free_at : (resource, float ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun resource q ->
      let arr = Array.of_list (List.sort compare !q) in
      let order = Array.map snd arr in
      Array.iter
        (fun node -> node_resources.(node) <- resource :: node_resources.(node))
        order;
      Hashtbl.add fifo resource order;
      Hashtbl.add cursor resource (ref 0);
      Hashtbl.add free_at resource (ref 0.))
    streams;
  (* --- simulation --- *)
  let ready_time = Array.make total 0. in
  let fired = Array.make total false in
  let dead = Array.make total false in
  let running =
    Prelude.Pqueue.create ~compare:(fun (t1, n1) (t2, n2) ->
        match compare (t1 : float) t2 with 0 -> compare n1 n2 | c -> c)
  in
  let events_fired = ref 0 in
  let task_starts = Array.make n (if nd = 0 then 0. else infinity) in
  (* a duplicated task completes at its earliest surviving copy's finish *)
  let task_fin = if nd = 0 then [||] else Array.make n infinity in
  let makespan = ref 0. in
  let retries = ref 0 in
  let backoff_time = ref 0. in
  let deferred = ref 0 in
  let can_fire node =
    (not fired.(node))
    && deps_remaining.(node) = 0
    && List.for_all
         (fun r ->
           let cur = !(Hashtbl.find cursor r) in
           let order = Hashtbl.find fifo r in
           cur < Array.length order && order.(cur) = node)
         node_resources.(node)
  in
  let task_of node =
    if node < n then Some node
    else if node >= n + k then Some copy_task.(node - n - k)
    else None
  in
  (* The compute element a dispatch runs on, for crash windows. *)
  let compute_proc node =
    if node < n then Some task_proc.(node)
    else if node >= n + k then Some copy_pl.(node - n - k).Schedule.proc
    else None
  in
  (* Every processor a dispatch must find alive and out of blackout. *)
  let involved node =
    match compute_proc node with
    | Some q -> [ q ]
    | None ->
        let c = comms.(node - n) in
        [ c.Schedule.src_proc; c.Schedule.dst_proc ]
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
  let rec try_fire node =
    if can_fire node then begin
      let start0 =
        List.fold_left
          (fun acc r -> max acc !(Hashtbl.find free_at r))
          ready_time.(node) node_resources.(node)
      in
      let procs = involved node in
      let start = defer procs start0 in
      if start > start0 then incr deferred;
      (* duration under jitter and link degradation *)
      let is_compute = compute_proc node <> None in
      let d =
        if is_compute then
          if task_jitter > 0. then
            duration.(node) *. (1. +. Rng.float rng task_jitter)
          else duration.(node)
        else begin
          let c = comms.(node - n) in
          let d =
            if comm_jitter > 0. then
              duration.(node) *. (1. +. Rng.float rng comm_jitter)
            else duration.(node)
          in
          d *. degrade.(c.Schedule.src_proc) *. degrade.(c.Schedule.dst_proc)
        end
      in
      (* a crashed compute element kills whatever it is running when the
         crash hits and runs nothing dispatched inside a down window —
         even if the processor later rejoins, that work stays lost.  A
         duplicated task merely loses that copy; it completes as long as
         some replica survives. *)
      let killed =
        match compute_proc node with
        | None -> false
        | Some q ->
            List.exists
              (fun (a, b) ->
                (start >= a && start < b) || (start < a && start +. d > a))
              down.(q)
      in
      (* flaky transmission: bounded retries with exponential backoff;
         [None] = the hop exhausted its budget and the data is lost *)
      let transmission =
        if killed then None
        else if (not is_compute) && duration.(node) > 0. then
          match !flaky with
          | None -> Some (d, 0, 0.)
          | Some (prob, max_retries, backoff) ->
              let rec attempt i elapsed paused =
                if Rng.float rng 1. < prob then
                  if i >= max_retries then None
                  else begin
                    let pause = backoff *. (2. ** float_of_int i) in
                    attempt (i + 1) (elapsed +. d +. pause) (paused +. pause)
                  end
                else Some (elapsed +. d, i, paused)
              in
              attempt 0 0. 0.
        else Some (d, 0, 0.)
      in
      match transmission with
      | None ->
          (* lost work is cancelled: vacate every FIFO position without
             occupying time so unrelated traffic keeps flowing, but never
             complete — dependents stay blocked and strand *)
          fired.(node) <- true;
          dead.(node) <- true;
          List.iter (fun r -> incr (Hashtbl.find cursor r)) node_resources.(node);
          List.iter
            (fun r ->
              let cur = !(Hashtbl.find cursor r) in
              let order = Hashtbl.find fifo r in
              if cur < Array.length order then try_fire order.(cur))
            node_resources.(node)
      | Some (elapsed, n_retries, paused) ->
          fired.(node) <- true;
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
          (match task_of node with
          | None -> ()
          | Some v ->
              if nd = 0 then begin
                task_starts.(v) <- start;
                if finish > !makespan then makespan := finish
              end
              else begin
                if start < task_starts.(v) then task_starts.(v) <- start;
                if finish < task_fin.(v) then task_fin.(v) <- finish
              end);
          List.iter
            (fun r ->
              Hashtbl.find free_at r := finish;
              incr (Hashtbl.find cursor r))
            node_resources.(node);
          Prelude.Pqueue.add running (finish, node);
          List.iter
            (fun r ->
              let cur = !(Hashtbl.find cursor r) in
              let order = Hashtbl.find fifo r in
              if cur < Array.length order then try_fire order.(cur))
            node_resources.(node)
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
          dependents.(node);
        List.iter try_fire dependents.(node);
        step ()
  in
  step ();
  let stats =
    { retries = !retries; backoff_time = !backoff_time; deferred = !deferred }
  in
  if nd > 0 then
    Array.iter
      (fun f -> if f < infinity && f > !makespan then makespan := f)
      task_fin;
  (* A task completes when any of its copies does; on single-copy
     schedules "every event fired live" is the same condition. *)
  let task_completed v =
    if nd = 0 then fired.(v) && not dead.(v) else task_fin.(v) < infinity
  in
  let completed =
    if nd = 0 then !events_fired = total
    else begin
      let ok = ref true in
      for v = 0 to n - 1 do
        if not (task_completed v) then ok := false
      done;
      !ok
    end
  in
  if completed then
    Completed
      {
        trace =
          {
            Executor.makespan = !makespan;
            task_starts;
            events_fired = !events_fired;
          };
        stats;
      }
  else begin
    let stranded = ref [] in
    for v = n - 1 downto 0 do
      if not (task_completed v) then stranded := v :: !stranded
    done;
    Stranded
      {
        stranded = !stranded;
        events_fired = !events_fired;
        total_events = total;
        partial_makespan = !makespan;
        stats;
      }
  end
