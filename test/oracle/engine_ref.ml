(* The straightforward list-based evaluator the arena engine replaced,
   kept as the executable specification of [Engine.price] and of the
   scans behind [Engine.schedule_best], [schedule_best_among] and
   [schedule_pending]: no caches, no pruning, one tentative-interval
   list per probe.  [with_reference] installs it through the
   [Engine.oracle] seam, and the test suite proves both produce
   bit-identical schedules. *)

module O = Onesched
module Engine = O.Engine
module Graph = O.Graph
module Schedule = O.Schedule
module Resource = O.Resource
module Platform = O.Platform
module Comm_model = O.Comm_model
module Timeline = O.Timeline

let sched = Engine.schedule

(* A priced candidate: its processor, execution window, the
   communication events committing it would add, in commit order, and
   under BSP the fresh comm phase they travel in ([None] when the task
   has no remote inputs, and in every other regime). *)
type eval = {
  proc : int;
  est : float;
  eft : float;
  hops : Schedule.comm list;
  phase : (float * float) option;
}

(* The copy of [src] that feeds remote consumers: the earliest-finishing
   one, ties to the lowest processor — the primary on a single-copy
   schedule. *)
let rep_fin_proc sched src =
  match Schedule.copies sched src with
  | [] -> invalid_arg "Engine_ref: unplaced predecessor"
  | (c0 : Schedule.placement) :: dups ->
      List.fold_left
        (fun ((bf, bp) as acc) (c : Schedule.placement) ->
          if c.finish < bf || (c.finish = bf && c.proc < bp) then
            (c.finish, c.proc)
          else acc)
        (c0.finish, c0.proc) dups

(* The finish of a copy of [src] local to [proc], if any; [None] on every
   single-copy schedule (the primary case is handled by the caller's
   [q = proc] test). *)
let dup_local_finish sched ~src ~proc =
  if not (Schedule.has_dups sched) then None
  else
    match Schedule.copy_on sched ~task:src ~proc with
    | Some c -> Some c.Schedule.finish
    | None -> None

(* Tentative busy intervals per physical timeline (physical equality:
   distinct resources are distinct Timeline.t values). *)
type scratch = (Timeline.t * (float * float) list) list

let scratch_for (scratch : scratch) tls =
  List.concat_map
    (fun tl ->
      match List.find_opt (fun (tl', _) -> tl' == tl) scratch with
      | Some (_, ivs) -> ivs
      | None -> [])
    tls

let scratch_add (scratch : scratch) tls iv : scratch =
  List.fold_left
    (fun acc tl ->
      let rec update = function
        | [] -> [ (tl, [ iv ]) ]
        | (tl', ivs) :: rest when tl' == tl -> (tl', iv :: ivs) :: rest
        | entry :: rest -> entry :: update rest
      in
      update acc)
    scratch tls

(* Earliest slot of [duration] on the joint busy set of [tls] plus the
   tentative intervals, at or after [after], honouring the policy. *)
let slot t ~tls ~scratch ~after ~duration =
  let extra = scratch_for scratch tls in
  let after =
    match Engine.policy t with
    | Insertion -> after
    | Append ->
        let last =
          List.fold_left
            (fun acc tl -> max acc (Timeline.last_finish tl))
            after tls
        in
        List.fold_left (fun acc (_, f) -> max acc f) last extra
  in
  Timeline_ref.earliest_gap_joint ~extra tls ~after ~duration

(* Incoming edges of [task], ordered by (source finish, source id): the
   greedy order in which §4.3 serialises incoming communications. *)
let incoming t task =
  let g = Schedule.graph (sched t) in
  let edges =
    Graph.fold_pred_edges g task ~init:[] ~f:(fun acc e ->
        let src = Graph.edge_src g e in
        let fin, _ = rep_fin_proc (sched t) src in
        (fin, src, e) :: acc)
  in
  List.sort compare edges

let evaluate_port ~floor t ~task ~proc =
  let g = Schedule.graph (sched t) in
  let plat = Schedule.platform (sched t) in
  let res = Schedule.resource (sched t) in
  let hops = ref [] in
  let scratch = ref ([] : scratch) in
  let ready =
    List.fold_left
      (fun ready (fin, src, e) ->
        let _, q = rep_fin_proc (sched t) src in
        let data = Graph.edge_data g e in
        if q = proc || data = 0. then max ready fin
        else
          match dup_local_finish (sched t) ~src ~proc with
          | Some f -> max ready f
          | None ->
              let arrival =
                List.fold_left
                  (fun data_ready (a, b) ->
                    let duration =
                      data *. Platform.hop_cost plat ~src:a ~dst:b
                    in
                    let tls = Resource.comm_busy res ~src:a ~dst:b in
                    let start =
                      slot t ~tls ~scratch:!scratch ~after:data_ready
                        ~duration
                    in
                    O.Obs_counters.(bump tentative_hops);
                    hops :=
                      {
                        Schedule.edge = e;
                        src_proc = a;
                        dst_proc = b;
                        start;
                        finish = start +. duration;
                      }
                      :: !hops;
                    scratch :=
                      scratch_add !scratch tls (start, start +. duration);
                    start +. duration)
                  (max fin floor)
                  (Platform.route plat ~src:q ~dst:proc)
              in
              max ready arrival)
      floor (incoming t task)
  in
  let duration = Schedule.exec_duration (sched t) ~task ~proc in
  let compute = Resource.compute res proc in
  let est = slot t ~tls:[ compute ] ~scratch:!scratch ~after:ready ~duration in
  { proc; est; eft = est +. duration; hops = List.rev !hops; phase = None }

(* BSP: the task's remote inputs travel in one fresh comm phase priced
   [g·h + L] from the h-relation [h] (total remote data), placed on the
   platform-wide phase busy set; local and zero-data inputs only
   constrain readiness. *)
let evaluate_bsp ~floor t ~task ~proc ~g:gp ~l:lp =
  let g = Schedule.graph (sched t) in
  let res = Schedule.resource (sched t) in
  let local_ready = ref floor in
  let remote_ready = ref floor in
  let h = ref 0. in
  let remote = ref [] in
  List.iter
    (fun (fin, _src, e) ->
      let q = Schedule.proc_of_exn (sched t) (Graph.edge_src g e) in
      let data = Graph.edge_data g e in
      if q = proc || data = 0. then begin
        if fin > !local_ready then local_ready := fin
      end
      else begin
        h := !h +. data;
        if fin > !remote_ready then remote_ready := fin;
        remote := (e, q) :: !remote
      end)
    (incoming t task);
  let duration = Schedule.exec_duration (sched t) ~task ~proc in
  let compute = Resource.compute res proc in
  match List.rev !remote with
  | [] ->
      let est =
        slot t ~tls:[ compute ] ~scratch:[] ~after:!local_ready ~duration
      in
      { proc; est; eft = est +. duration; hops = []; phase = None }
  | remote ->
      let d = (gp *. !h) +. lp in
      let phase_tls = Resource.phase_busy res in
      let c =
        slot t ~tls:phase_tls ~scratch:[] ~after:!remote_ready ~duration:d
      in
      let f = c +. d in
      let scratch = scratch_add [] phase_tls (c, f) in
      let hops =
        List.map
          (fun (e, q) ->
            O.Obs_counters.(bump tentative_hops);
            {
              Schedule.edge = e;
              src_proc = q;
              dst_proc = proc;
              start = c;
              finish = f;
            })
          remote
      in
      let ready = if !local_ready > f then !local_ready else f in
      let est = slot t ~tls:[ compute ] ~scratch ~after:ready ~duration in
      { proc; est; eft = est +. duration; hops; phase = Some (c, f) }

(* Latency+overhead: a hop's event spans [2o + data·hop_cost + l]; only
   the endpoint overheads occupy ports, exactly the sub-intervals
   [Resource.commit_comm] will commit.  The send and receive windows
   are coupled, so the placement alternates between the two sides until
   both are free (strictly increasing candidate starts, hence
   terminating). *)
let evaluate_latency ~floor t ~task ~proc ~o ~l =
  let g = Schedule.graph (sched t) in
  let plat = Schedule.platform (sched t) in
  let res = Schedule.resource (sched t) in
  let hops = ref [] in
  let scratch = ref ([] : scratch) in
  let ready =
    List.fold_left
      (fun ready (fin, _src, e) ->
        let q = Schedule.proc_of_exn (sched t) (Graph.edge_src g e) in
        let data = Graph.edge_data g e in
        if q = proc || data = 0. then max ready fin
        else begin
          let arrival =
            List.fold_left
              (fun data_ready (a, b) ->
                let span =
                  (2. *. o) +. (data *. Platform.hop_cost plat ~src:a ~dst:b)
                  +. l
                in
                let send_tls = Resource.send_busy res a in
                let recv_tls = Resource.recv_busy res b in
                let rec place after =
                  let s =
                    slot t ~tls:send_tls ~scratch:!scratch ~after ~duration:o
                  in
                  let f = s +. span in
                  let r0 = max (f -. o) s in
                  let r =
                    slot t ~tls:recv_tls ~scratch:!scratch ~after:r0
                      ~duration:o
                  in
                  if r <= r0 then (s, f, r0)
                  else
                    let a' = (r -. span) +. o in
                    place (if a' > s then a' else f)
                in
                let s, f, r0 = place data_ready in
                O.Obs_counters.(bump tentative_hops);
                hops :=
                  {
                    Schedule.edge = e;
                    src_proc = a;
                    dst_proc = b;
                    start = s;
                    finish = f;
                  }
                  :: !hops;
                let s1 = min (s +. o) f in
                if s1 > s then
                  scratch := scratch_add !scratch send_tls (s, s1);
                if f > r0 then scratch := scratch_add !scratch recv_tls (r0, f);
                f)
              (max fin floor)
              (Platform.route plat ~src:q ~dst:proc)
          in
          max ready arrival
        end)
      floor (incoming t task)
  in
  let duration = Schedule.exec_duration (sched t) ~task ~proc in
  let compute = Resource.compute res proc in
  let est = slot t ~tls:[ compute ] ~scratch:!scratch ~after:ready ~duration in
  { proc; est; eft = est +. duration; hops = List.rev !hops; phase = None }

let evaluate ?(floor = 0.) t ~task ~proc =
  O.Obs_counters.(bump evaluations);
  match (Schedule.model (sched t)).Comm_model.regime with
  | Comm_model.Port -> evaluate_port ~floor t ~task ~proc
  | Comm_model.Bsp { g; l } -> evaluate_bsp ~floor t ~task ~proc ~g ~l
  | Comm_model.Latency_overhead { o; l } ->
      evaluate_latency ~floor t ~task ~proc ~o ~l

(* Price by reference and hand the result to the engine as its current
   candidate. *)
let price ~floor t ~task ~proc =
  let ev = evaluate ~floor t ~task ~proc in
  Engine.set_candidate t ~task ~proc:ev.proc ~start:ev.est ev.hops

(* The argmin over (task, proc) rows: the earliest alive row with the
   least finish time, its pricing kept; -1 when no row is alive. *)
let argmin ~floor t ~tasks ~procs ~alive =
  let best = ref (-1) and best_eft = ref infinity in
  for i = 0 to Array.length tasks - 1 do
    if alive.(i) then begin
      price ~floor t ~task:tasks.(i) ~proc:procs.(i);
      let eft = Engine.priced_eft t in
      if !best < 0 || not (!best_eft <= eft) then begin
        Engine.keep t;
        best := i;
        best_eft := eft
      end
    end
  done;
  !best

let oracle = { Engine.price; argmin }

(* [with_reference f] runs [f] with [Engine.price] and the place steps
   re-routed through this evaluator, restoring the previous mode on
   exit, including on exceptions. *)
let with_reference f =
  let prev = !Engine.oracle in
  Engine.oracle := Some oracle;
  Fun.protect ~finally:(fun () -> Engine.oracle := prev) f
