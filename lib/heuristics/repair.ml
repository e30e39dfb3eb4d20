module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

type result = {
  schedule : Sched.Schedule.t;
  crash_proc : int;
  crash_time : float;
  frozen : int;
  remapped : int list;
  nominal_makespan : float;
  repaired_makespan : float;
}

(* The suffix re-mapper shared by [crash] and the rolling-horizon online
   driver: HEFT-style Kahn loop over the [todo] set — upward-rank
   priority, earliest finish over [candidates], every decision floored —
   committed through the engine so the commit log stays rewindable. *)
let schedule_suffix ?(params = Params.default) ~floor ~candidates engine ~todo =
  let sched = Engine.schedule engine in
  let g = Schedule.graph sched in
  let plat = Schedule.platform sched in
  if candidates = [] then
    invalid_arg "Repair.schedule_suffix: no candidate processor";
  let n = Graph.n_tasks g in
  let ranks = Ranking.upward ~averaging:params.Params.averaging g plat in
  (* Ready heap in rank order, ties on task id. *)
  let ready = Prelude.Pqueue.Int_heap.create ~rank:ranks () in
  let remaining = Array.make n 0 in
  for v = 0 to n - 1 do
    if todo.(v) then begin
      let r =
        Graph.fold_pred_edges g v ~init:0 ~f:(fun acc e ->
            if todo.(Graph.edge_src g e) then acc + 1 else acc)
      in
      remaining.(v) <- r;
      if r = 0 then Prelude.Pqueue.Int_heap.add ready v
    end
  done;
  let remapped = ref [] in
  while not (Prelude.Pqueue.Int_heap.is_empty ready) do
    let task = Prelude.Pqueue.Int_heap.pop_exn ready in
    let (_ : int) = Engine.schedule_best_among ~floor engine ~task candidates in
    Obs.Counters.(bump repairs);
    remapped := task :: !remapped;
    Graph.iter_succ_edges g task ~f:(fun e ->
        let u = Graph.edge_dst g e in
        if todo.(u) then begin
          remaining.(u) <- remaining.(u) - 1;
          if remaining.(u) = 0 then Prelude.Pqueue.Int_heap.add ready u
        end)
  done;
  List.sort compare !remapped

(* Frozen tasks are closed under precedence: a predecessor of a task that
   started before [at] finished — hence started — even earlier, and a
   predecessor that ran on the dead processor finished before the
   successor started, i.e. before [at].  So replaying the frozen
   placements plus the communications feeding them is always a valid
   schedule prefix, and no re-mapped task ever precedes a frozen one. *)
let crash ?(params = Params.default) ?(dead = []) ~proc ~at sched =
  let g = Schedule.graph sched in
  let plat = Schedule.platform sched in
  let p = Platform.p plat in
  if proc < 0 || proc >= p then
    invalid_arg
      (Printf.sprintf "Repair.crash: processor %d out of range (platform has %d)"
         proc p);
  if at < 0. then invalid_arg "Repair.crash: negative crash time";
  if not (Schedule.all_placed sched) then
    invalid_arg "Repair.crash: schedule is not fully placed";
  let survivors =
    List.filter
      (fun q -> q <> proc && not (List.mem q dead))
      (List.init p Fun.id)
  in
  if survivors = [] then
    invalid_arg "Repair.crash: no surviving processor to re-map onto";
  let n = Graph.n_tasks g in
  let nominal_makespan = Schedule.makespan sched in
  let is_dead q = q = proc || List.mem q dead in
  (* A copy is lost when it had not started by the crash instant, or was
     mid-flight on a dead processor.  A task must be re-mapped only when
     {e every} copy is lost — a surviving duplicate satisfies the task. *)
  let copy_lost (c : Schedule.placement) =
    c.start >= at || (is_dead c.proc && c.finish > at)
  in
  let remap = Array.make n false in
  if not (Schedule.has_dups sched) then
    for v = 0 to n - 1 do
      if
        Schedule.start_of_exn sched v >= at
        || (Schedule.proc_of_exn sched v = proc
           && Schedule.finish_of_exn sched v > at)
      then remap.(v) <- true
    done
  else
    for v = 0 to n - 1 do
      remap.(v) <- List.for_all copy_lost (Schedule.copies sched v)
    done;
  (* Keep the frozen prefix by copying the schedule and retracting the
     non-frozen suffix in place — the communications feeding re-mapped
     tasks and the re-mapped placements — instead of replaying every
     frozen decision into a fresh schedule.  The retained interval sets
     (and hence every re-mapping decision below) are identical either
     way; the cost drops from O(whole schedule) to
     O(frozen copy + work undone). *)
  let fresh = Schedule.copy sched in
  if not (Schedule.has_dups sched) then
    Schedule.filter_comms fresh ~keep:(fun (c : Schedule.comm) ->
        not remap.(Graph.edge_dst g c.edge))
  else begin
    (* Copy-set schedules drop whole provenance chains: a chain is dead
       when its destination task is re-mapped, or when the copy it feeds
       or the copy it departs from is lost. *)
    let lost_on ~task ~p =
      match Schedule.copy_on fresh ~task ~proc:p with
      | Some c -> copy_lost c
      | None -> true
    in
    let m = Schedule.n_comm_events fresh in
    let keep = Array.make m true in
    let i = ref 0 in
    while !i < m do
      let first = !i in
      incr i;
      while !i < m && not (Schedule.comm_head_at fresh !i) do
        incr i
      done;
      let h0 = Schedule.comm_at fresh first in
      let hk = Schedule.comm_at fresh (!i - 1) in
      let u = Graph.edge_src g h0.Schedule.edge in
      let v = Graph.edge_dst g h0.Schedule.edge in
      let dead_chain =
        remap.(v)
        || lost_on ~task:v ~p:hk.Schedule.dst_proc
        || lost_on ~task:u ~p:h0.Schedule.src_proc
      in
      if dead_chain then
        for j = first to !i - 1 do
          keep.(j) <- false
        done
    done;
    Schedule.filter_commsi fresh ~keep:(fun j _ -> keep.(j))
  end;
  for v = 0 to n - 1 do
    if remap.(v) then begin
      List.iter
        (fun (c : Schedule.placement) ->
          Schedule.unplace_copy fresh ~task:v ~proc:c.proc)
        (Schedule.dup_copies fresh v);
      Schedule.unplace_task fresh v
    end
    else
      List.iter
        (fun (c : Schedule.placement) ->
          if copy_lost c then Schedule.unplace_copy fresh ~task:v ~proc:c.proc)
        (Schedule.copies fresh v)
  done;
  (* Re-map the rest HEFT-style onto the survivors, every new decision
     floored at the crash instant. *)
  let engine = Engine.create ~policy:params.Params.policy fresh in
  let remapped =
    schedule_suffix ~params ~floor:at ~candidates:survivors engine ~todo:remap
  in
  {
    schedule = fresh;
    crash_proc = proc;
    crash_time = at;
    frozen = n - List.length remapped;
    remapped;
    nominal_makespan;
    repaired_makespan = Schedule.makespan fresh;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>crash:            proc %d @@ %g@,\
     frozen tasks:     %d@,\
     re-mapped tasks:  %d@,\
     nominal makespan: %g@,\
     repaired makespan:%g (+%.1f%%)@]"
    r.crash_proc r.crash_time r.frozen
    (List.length r.remapped)
    r.nominal_makespan r.repaired_makespan
    (if r.nominal_makespan > 0. then
       (r.repaired_makespan -. r.nominal_makespan) /. r.nominal_makespan *. 100.
     else 0.)
