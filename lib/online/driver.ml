module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule
module Validate = Sched.Validate
module Comm_model = Commmodel.Comm_model
module Params = Heuristics.Params
module Engine = Heuristics.Engine
module Repair = Heuristics.Repair
module Registry = Heuristics.Registry
module Suite = Testbeds.Suite
module Pqueue = Prelude.Pqueue

type config = {
  params : Params.t;
  heuristic : string;
  max_active : int;
  queue_cap : int;
  replan_budget : int;
  max_retries : int;
  backoff : float;
  incremental : bool;
}

let default_config =
  {
    params = Params.default;
    heuristic = "heft";
    max_active = 4;
    queue_cap = 16;
    replan_budget = 64;
    max_retries = 3;
    backoff = 20.;
    incremental = true;
  }

type job_state = Queued | Active | Completed | Shed | Rejected

type job_report = {
  id : int;
  arrived : float;
  spec : Event.job;
  state : job_state;
  finish : float;  (** completion time; [nan] unless [Completed] *)
  missed : bool;
}

type replan_report = {
  at : float;
  trigger : string;
  incremental : bool;  (** served by commit-log rewind, not a rebuild *)
  frozen : int;
  replanned : int;
  wall_s : float;
  makespan : float;
}

type outcome = {
  schedule : Schedule.t option;
  graph : Graph.t option;
  makespan : float;
  events_processed : int;
  replans : replan_report list;
  jobs : job_report list;
  completed : int;
  deadline_misses : int;
  shed : int;
  rejected : int;
  retries : int;
  backoff_s : float;
  budget_exhausted : bool;
}

(* ---- internal state ---- *)

type pstate = P_up | P_down of { since : float; attempt : int } | P_dead

type jrec = {
  jid : int;
  jarrived : float;
  jspec : Event.job;
  jgraph : Graph.t;
  jdeadline : float option;  (** absolute *)
  mutable jstate : job_state;
  mutable jfinish : float;
  mutable jmissed : bool;
}

(* One frozen decision, keyed independently of composite task ids so it
   survives graph recomposition (admission and shedding shift offsets).
   Hops carry the edge's task endpoints as job-local ids; the edge id is
   re-derived per target graph. *)
type dhop = {
  h_src_local : int;
  h_dst_local : int;
  h_src_proc : int;
  h_dst_proc : int;
  h_start : float;
}

(* One surviving copy of a frozen task, with the provenance chains that
   fed it. *)
type dcopy = {
  c_proc : int;
  c_start : float;
  c_finish : float;
  c_hops : dhop list;
}

(* A frozen task may survive as several copies (duplication-aware plans);
   the head of [d_copies] is the primary the re-plan re-commits first. *)
type decision = { d_copies : dcopy list }

type plan = {
  pgraph : Graph.t;
  psched : Schedule.t;
  pengine : Engine.t option;  (** [None] right after the initial heuristic *)
  playout : (jrec * int) list;  (** members in admission order, offsets *)
  pgen : int;  (** membership generation this plan was built for *)
}

type qev = Ext of Event.kind | Probe of { p_proc : int; p_since : float }

let run ?(config = default_config) plat (events : Event.t list) =
  let params = config.params in
  let model = params.Params.model in
  (match model.Comm_model.regime with
  | Comm_model.Port -> ()
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ ->
      invalid_arg "Online.Driver.run: only port-regime models are supported");
  let p = Platform.p plat in
  let entry = Registry.find config.heuristic in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.at < 0. then
        invalid_arg "Online.Driver.run: negative event time";
      match e.Event.kind with
      | Event.Crash q | Event.Down q | Event.Rejoin q ->
          if q < 0 || q >= p then
            invalid_arg
              (Printf.sprintf
                 "Online.Driver.run: processor %d out of range (platform has \
                  %d)"
                 q p)
      | Event.Arrive _ -> ())
    events;
  (* mutable run state *)
  let pstate = Array.make p P_up in
  let dead_since = Array.make p 0. in
  let members : jrec list ref = ref [] in
  let gen = ref 0 in
  let plan : plan option ref = ref None in
  let waitq : jrec list ref = ref [] in
  let all_jobs : jrec list ref = ref [] in
  let next_id = ref 0 in
  let executed : (int * int, int * float * float) Hashtbl.t =
    Hashtbl.create 256
  in
  let replans : replan_report list ref = ref [] in
  let n_replans = ref 0 in
  let retries = ref 0 in
  let backoff_s = ref 0. in
  let shed = ref 0 in
  let rejected = ref 0 in
  let misses = ref 0 in
  let completed = ref 0 in
  let events_processed = ref 0 in
  let last_now = ref 0. in
  let budget_exhausted () = !n_replans >= config.replan_budget in
  let candidates () =
    List.filter (fun q -> pstate.(q) = P_up) (List.init p Fun.id)
  in
  let down_kills () =
    List.init p Fun.id
    |> List.filter_map (fun q ->
           match pstate.(q) with
           | P_down { since; _ } -> Some (q, since)
           | P_dead -> Some (q, dead_since.(q))
           | P_up -> None)
  in
  let active_count () =
    List.length (List.filter (fun j -> j.jstate = Active) !members)
  in
  let job_tasks j = Graph.n_tasks j.jgraph in
  (* a duplicated task completes at its earliest copy's finish *)
  let job_finish pl (j, off) =
    let fin = ref 0. in
    for local = 0 to job_tasks j - 1 do
      let f = Schedule.earliest_finish pl.psched (off + local) in
      if f > !fin then fin := f
    done;
    !fin
  in
  let job_started pl (j, off) =
    let started = ref false in
    for local = 0 to job_tasks j - 1 do
      List.iter
        (fun (c : Schedule.placement) ->
          if c.start < !last_now then started := true)
        (Schedule.copies pl.psched (off + local))
    done;
    !started
  in
  (* ---- the re-planning core ---- *)
  let replan ~now ~trigger ?(extra_kills = []) () =
    if !members <> [] then begin
      incr n_replans;
      Obs.Counters.(bump replans);
      let wall0 = Unix.gettimeofday () in
      let report =
        Obs.Span.with_ "replan" @@ fun () ->
        let kills = extra_kills @ down_kills () in
        let cands = candidates () in
        if cands = [] then
          failwith "Online.Driver: no processor available to re-plan onto";
        (* -- split the old plan into frozen decisions and lost work -- *)
        let frozen_tbl : (int * int, decision) Hashtbl.t =
          Hashtbl.create 256
        in
        let old_remap = ref [||] in
        let old_kept : Schedule.placement list array ref = ref [||] in
        (match !plan with
        | None -> ()
        | Some pl ->
            let g = pl.pgraph and s = pl.psched in
            let n = Graph.n_tasks g in
            (* a copy survives when it started before [now] and no down
               window kills it; a task needs re-planning only when no copy
               survives — a live replica satisfies a crashed task *)
            let copy_kept (c : Schedule.placement) =
              c.start < now
              && not
                   (List.exists
                      (fun (k, since) -> c.proc = k && c.finish > since)
                      kills)
            in
            let kept = Array.make n [] in
            let remap = Array.make n false in
            for v = 0 to n - 1 do
              kept.(v) <- List.filter copy_kept (Schedule.copies s v);
              remap.(v) <- kept.(v) = []
            done;
            (* a hop that would have travelled through a down window never
               delivered: its destination must be re-planned too *)
            Schedule.iter_comms s ~f:(fun (c : Schedule.comm) ->
                if
                  List.exists
                    (fun (k, since) ->
                      (c.src_proc = k || c.dst_proc = k) && c.finish > since)
                    kills
                then remap.(Graph.edge_dst g c.edge) <- true);
            (* close under precedence: a forward successor scan over the
               topological order — marking propagates transitively because
               every task is visited before its successors *)
            Array.iter
              (fun v ->
                if remap.(v) then
                  Graph.iter_succ_edges g v ~f:(fun e ->
                      remap.(Graph.edge_dst g e) <- true))
              (Graph.topological_order g);
            for v = 0 to n - 1 do
              if remap.(v) then kept.(v) <- []
            done;
            old_remap := remap;
            old_kept := kept;
            (* provenance chains, assigned to the consumer copy they feed;
               chains are contiguous runs in commit order *)
            let chain_tbl : (int * int, (int * int * int * int * float) list list)
                Hashtbl.t =
              Hashtbl.create 64
            in
            let nc = Schedule.n_comms s in
            let i = ref 0 in
            while !i < nc do
              let first = !i in
              incr i;
              while !i < nc && not (Schedule.comm_head_at s !i) do
                incr i
              done;
              let h0 = Schedule.comm_at s first in
              let hk = Schedule.comm_at s (!i - 1) in
              let e = h0.Schedule.edge in
              let u = Graph.edge_src g e and v = Graph.edge_dst g e in
              let dst = hk.Schedule.dst_proc in
              (* a chain survives only when both endpoint copies do *)
              let chain_kept =
                (not remap.(v))
                && List.exists
                     (fun (c : Schedule.placement) -> c.proc = dst)
                     kept.(v)
                && List.exists
                     (fun (c : Schedule.placement) ->
                       c.proc = h0.Schedule.src_proc)
                     kept.(u)
              in
              if chain_kept then begin
                let chain = ref [] in
                for j = !i - 1 downto first do
                  let c = Schedule.comm_at s j in
                  chain :=
                    (u, v, c.Schedule.src_proc, c.Schedule.dst_proc,
                     c.Schedule.start)
                    :: !chain
                done;
                let key = (v, dst) in
                let prev =
                  try Hashtbl.find chain_tbl key with Not_found -> []
                in
                Hashtbl.replace chain_tbl key (!chain :: prev)
              end
            done;
            let copy_hops v q =
              match Hashtbl.find_opt chain_tbl (v, q) with
              | None -> []
              | Some chains -> List.concat (List.rev chains)
            in
            List.iter
              (fun ((j, off) : jrec * int) ->
                for local = 0 to job_tasks j - 1 do
                  let v = off + local in
                  let q = Schedule.placement_exn s v in
                  if remap.(v) then begin
                    (* started work killed by a crash/outage: its executed
                       record is void — the one legitimate removal *)
                    if q.Schedule.start < now then
                      Hashtbl.remove executed (j.jid, local)
                  end
                  else begin
                    (* the primary stays first when it survives; otherwise
                       the earliest surviving replica takes over and the
                       dead primary's executed record is void *)
                    let primary_kept =
                      List.exists
                        (fun (c : Schedule.placement) ->
                          c.proc = q.Schedule.proc)
                        kept.(v)
                    in
                    if (not primary_kept) && q.Schedule.start < now then
                      Hashtbl.remove executed (j.jid, local);
                    let to_copy (c : Schedule.placement) =
                      {
                        c_proc = c.proc;
                        c_start = c.start;
                        c_finish = c.finish;
                        c_hops =
                          List.map
                            (fun (src, dst, sp, dp, st) ->
                              {
                                h_src_local = src - off;
                                h_dst_local = dst - off;
                                h_src_proc = sp;
                                h_dst_proc = dp;
                                h_start = st;
                              })
                            (copy_hops v c.proc);
                      }
                    in
                    Hashtbl.replace frozen_tbl (j.jid, local)
                      { d_copies = List.map to_copy kept.(v) }
                  end
                done)
              pl.playout);
        let n_frozen = Hashtbl.length frozen_tbl in
        for _ = 1 to n_frozen do
          Obs.Counters.(bump frozen_tasks)
        done;
        (* rebuild an engine eval from one frozen copy, against [graph] *)
        let eval_of graph off (c : dcopy) =
          {
            Engine.proc = c.c_proc;
            est = c.c_start;
            eft = c.c_finish;
            hops =
              List.map
                (fun h ->
                  let edge =
                    Option.get
                      (Graph.find_edge graph ~src:(off + h.h_src_local)
                         ~dst:(off + h.h_dst_local))
                  in
                  {
                    Engine.edge = edge.Graph.id;
                    src_proc = h.h_src_proc;
                    dst_proc = h.h_dst_proc;
                    start = h.h_start;
                  })
                c.c_hops;
            phase = None;
          }
        in
        (* -- incremental: rewind the engine's commit log to the longest
           all-frozen prefix, replay the frozen stragglers, re-plan only
           the suffix.  Falls back to a from-scratch rebuild when the
           composite graph changed or no commit log exists. -- *)
        let use_incremental =
          config.incremental
          && match !plan with
             | Some pl -> pl.pgen = !gen && pl.pengine <> None
             | None -> false
        in
        let n_replanned = ref 0 in
        (if use_incremental then begin
           let pl = Option.get !plan in
           let e = Option.get pl.pengine in
           let remap = !old_remap in
           let kept = !old_kept in
           let s = pl.psched in
           (* a commit is dropped when its task is re-planned or the
              specific copy it placed did not survive *)
           let entry_dropped i =
             let v = Engine.commit_task_at e i in
             remap.(v)
             ||
             let q = Engine.commit_proc_at e i in
             let qq = if q >= 0 then q else Schedule.proc_of_exn s v in
             not
               (List.exists
                  (fun (c : Schedule.placement) -> c.proc = qq)
                  kept.(v))
           in
           let nc = Engine.n_commits e in
           let k = ref nc in
           (try
              for i = 0 to nc - 1 do
                if entry_dropped i then begin
                  k := i;
                  raise Exit
                end
              done
            with Exit -> ());
           (* surviving commits past the rewind point must be replayed,
              copy by copy, in their original order; capture them before
              the rewind erases their placements *)
           let suffix = ref [] in
           for i = nc - 1 downto !k do
             let v = Engine.commit_task_at e i in
             let q = Engine.commit_proc_at e i in
             let qq = if q >= 0 then q else Schedule.proc_of_exn s v in
             suffix := (v, qq) :: !suffix
           done;
           let owner v =
             List.find
               (fun (j, off) -> v >= off && v < off + job_tasks j)
               pl.playout
           in
           Engine.rewind e ~to_:!k;
           List.iter
             (fun (v, qq) ->
               if
                 (not remap.(v))
                 && List.exists
                      (fun (c : Schedule.placement) -> c.proc = qq)
                      kept.(v)
               then begin
                 let j, off = owner v in
                 let d = Hashtbl.find frozen_tbl (j.jid, v - off) in
                 let c =
                   List.find (fun (c : dcopy) -> c.c_proc = qq) d.d_copies
                 in
                 let ev = eval_of pl.pgraph off c in
                 (* the first surviving copy replayed becomes the primary *)
                 if Schedule.is_placed s v then Engine.commit_copy e ~task:v ev
                 else Engine.commit e ~task:v ev;
                 Obs.Counters.(bump replayed_tasks)
               end)
             !suffix;
           let remapped =
             Repair.schedule_suffix ~params ~floor:now ~candidates:cands e
               ~todo:remap
           in
           n_replanned := List.length remapped
         end
         else begin
           (* from-scratch rebuild over the current membership *)
           let ms = !members in
           let g', offs = Graph.disjoint_union (List.map (fun j -> j.jgraph) ms) in
           let layout' = List.mapi (fun i j -> (j, offs.(i))) ms in
           let initial = !plan = None in
           if initial && now <= 0. && List.length cands = p then begin
             (* the very first plan on a healthy platform belongs to the
                configured heuristic; later re-plans are repair-style *)
             let s' = entry.Registry.scheduler params plat g' in
             plan :=
               Some
                 {
                   pgraph = g';
                   psched = s';
                   pengine = None;
                   playout = layout';
                   pgen = !gen;
                 };
             n_replanned := Graph.n_tasks g'
           end
           else begin
             let s' = Schedule.create ~graph:g' ~platform:plat ~model () in
             let e' = Engine.create ~policy:params.Params.policy s' in
             let n' = Graph.n_tasks g' in
             let todo = Array.make n' true in
             let frozen_of = Array.make n' None in
             List.iter
               (fun (j, off) ->
                 for local = 0 to job_tasks j - 1 do
                   match Hashtbl.find_opt frozen_tbl (j.jid, local) with
                   | Some d ->
                       frozen_of.(off + local) <- Some (d, off);
                       todo.(off + local) <- false
                   | None -> ()
                 done)
               layout';
             Array.iter
               (fun v ->
                 match frozen_of.(v) with
                 | None -> ()
                 | Some (d, off) -> (
                     match d.d_copies with
                     | [] -> ()
                     | prim :: dups ->
                         Engine.commit e' ~task:v (eval_of g' off prim);
                         List.iter
                           (fun c ->
                             Engine.commit_copy e' ~task:v (eval_of g' off c))
                           dups;
                         Obs.Counters.(bump replayed_tasks)))
               (Graph.topological_order g');
             let remapped =
               Repair.schedule_suffix ~params ~floor:now ~candidates:cands e'
                 ~todo
             in
             n_replanned := List.length remapped;
             plan :=
               Some
                 {
                   pgraph = g';
                   psched = s';
                   pengine = Some e';
                   playout = layout';
                   pgen = !gen;
                 }
           end
         end);
        let pl = Option.get !plan in
        let wall_s = Unix.gettimeofday () -. wall0 in
        (* -- contracts: Validate-clean output, bit-identical executed
           prefix -- *)
        (match Validate.check pl.psched with
        | Ok () -> ()
        | Error msgs ->
            failwith
              (Printf.sprintf
                 "Online.Driver: re-plan at t=%g (%s) is invalid: %s" now
                 trigger (String.concat "; " msgs)));
        List.iter
          (fun (j, off) ->
            for local = 0 to job_tasks j - 1 do
              let q = Schedule.placement_exn pl.psched (off + local) in
              if q.Schedule.start < now then begin
                match Hashtbl.find_opt executed (j.jid, local) with
                | Some (pr, st, fi) ->
                    if
                      not
                        (pr = q.Schedule.proc && st = q.Schedule.start
                       && fi = q.Schedule.finish)
                    then
                      failwith
                        (Printf.sprintf
                           "Online.Driver: frozen prefix changed at t=%g \
                            (%s): job %d task %d moved from p%d@[%g,%g] to \
                            p%d@[%g,%g]"
                           now trigger j.jid local pr st fi q.Schedule.proc
                           q.Schedule.start q.Schedule.finish)
                | None ->
                    Hashtbl.replace executed (j.jid, local)
                      (q.Schedule.proc, q.Schedule.start, q.Schedule.finish)
              end
            done)
          pl.playout;
        {
          at = now;
          trigger;
          incremental = use_incremental;
          frozen = n_frozen;
          replanned = !n_replanned;
          wall_s;
          makespan = Schedule.makespan pl.psched;
        }
      in
      replans := report :: !replans
    end
  in
  (* ---- graceful degradation: shed lowest-priority unstarted work
     instead of missing a higher-priority deadline ---- *)
  let rec enforce_deadlines ~now =
    match !plan with
    | None -> ()
    | Some pl -> (
        let missing =
          List.find_opt
            (fun (j, off) ->
              j.jstate = Active
              &&
              match j.jdeadline with
              | Some d -> job_finish pl (j, off) > d
              | None -> false)
            pl.playout
        in
        match missing with
        | None -> ()
        | Some (victim_of, _) -> (
            if budget_exhausted () then ()
            else
              (* lowest priority first; among equals drop the newest *)
              let candidates_to_shed =
                List.filter
                  (fun (j, off) ->
                    j.jstate = Active
                    && j.jspec.Event.priority < victim_of.jspec.Event.priority
                    && not (job_started pl (j, off)))
                  pl.playout
                |> List.sort (fun ((a : jrec), _) ((b : jrec), _) ->
                       match
                         compare a.jspec.Event.priority b.jspec.Event.priority
                       with
                       | 0 -> compare b.jid a.jid
                       | c -> c)
              in
              match candidates_to_shed with
              | [] -> ()
              | (j, _) :: _ ->
                  j.jstate <- Shed;
                  incr shed;
                  Obs.Counters.(bump shed_jobs);
                  members := List.filter (fun m -> m != j) !members;
                  incr gen;
                  replan ~now ~trigger:"shed" ();
                  enforce_deadlines ~now))
  in
  let complete_job (j, off) pl =
    let fin = job_finish pl (j, off) in
    j.jstate <- Completed;
    j.jfinish <- fin;
    incr completed;
    match j.jdeadline with
    | Some d when fin > d ->
        j.jmissed <- true;
        incr misses;
        Obs.Counters.(bump deadline_misses)
    | _ -> ()
  in
  let admit ~now ~trigger j =
    j.jstate <- Active;
    members := !members @ [ j ];
    incr gen;
    replan ~now ~trigger ();
    enforce_deadlines ~now
  in
  (* completion sweep + admission of queued jobs once capacity frees *)
  let advance ~now =
    (match !plan with
    | None -> ()
    | Some pl ->
        List.iter
          (fun (j, off) ->
            if j.jstate = Active then begin
              let fin = job_finish pl (j, off) in
              (* a job whose plan touches a processor in a pending down
                 window has not really finished — resolution (rejoin or
                 give-up) will re-plan it *)
              let blocked = ref false in
              for local = 0 to job_tasks j - 1 do
                List.iter
                  (fun (c : Schedule.placement) ->
                    match pstate.(c.proc) with
                    | P_down { since; _ } when c.finish > since ->
                        blocked := true
                    | _ -> ())
                  (Schedule.copies pl.psched (off + local))
              done;
              if (not !blocked) && fin <= now then complete_job (j, off) pl
            end)
          pl.playout);
    let rec admit_waiting () =
      match !waitq with
      | j :: rest
        when active_count () < config.max_active && not (budget_exhausted ())
        ->
          waitq := rest;
          admit ~now ~trigger:"admit" j;
          admit_waiting ()
      | _ -> ()
    in
    admit_waiting ()
  in
  (* ---- event handlers ---- *)
  let handle_arrival ~now spec =
    let tb = Suite.find spec.Event.testbed in
    let n = max spec.Event.n tb.Suite.min_n in
    let g = tb.Suite.build ~n ~ccr:spec.Event.ccr in
    let j =
      {
        jid = !next_id;
        jarrived = now;
        jspec = spec;
        jgraph = g;
        jdeadline = Option.map (fun d -> now +. d) spec.Event.deadline;
        jstate = Rejected;
        jfinish = nan;
        jmissed = false;
      }
    in
    incr next_id;
    all_jobs := j :: !all_jobs;
    if budget_exhausted () then incr rejected
    else if active_count () < config.max_active then
      admit ~now ~trigger:"arrive" j
    else if List.length !waitq < config.queue_cap then begin
      j.jstate <- Queued;
      waitq := !waitq @ [ j ]
    end
    else incr rejected
  in
  let queue =
    Pqueue.create ~compare:(fun (t1, s1, _) (t2, s2, _) ->
        match compare (t1 : float) t2 with 0 -> compare (s1 : int) s2 | c -> c)
  in
  let qseq = ref 0 in
  let push at ev =
    incr qseq;
    Pqueue.add queue (at, !qseq, ev)
  in
  let handle_crash ~now q =
    (match pstate.(q) with
    | P_down { since; _ } -> dead_since.(q) <- since
    | _ -> dead_since.(q) <- now);
    pstate.(q) <- P_dead;
    replan ~now ~trigger:"crash" ();
    enforce_deadlines ~now
  in
  let handle_down ~now q =
    match pstate.(q) with
    | P_up ->
        pstate.(q) <- P_down { since = now; attempt = 0 };
        backoff_s := !backoff_s +. config.backoff;
        Obs.Counters.backoff config.backoff;
        push (now +. config.backoff) (Probe { p_proc = q; p_since = now })
    | P_down _ | P_dead -> ()
  in
  let handle_probe ~now q since =
    match pstate.(q) with
    | P_down { since = s; attempt } when s = since ->
        (* the processor is still unreachable: that retry failed *)
        incr retries;
        Obs.Counters.(bump retries);
        let attempt = attempt + 1 in
        if attempt >= config.max_retries then begin
          (* give up: declare it dead and re-route its pending work *)
          dead_since.(q) <- since;
          pstate.(q) <- P_dead;
          replan ~now ~trigger:"give-up" ();
          enforce_deadlines ~now
        end
        else begin
          pstate.(q) <- P_down { since; attempt };
          let pause = config.backoff *. (2. ** float_of_int attempt) in
          backoff_s := !backoff_s +. pause;
          Obs.Counters.backoff pause;
          push (now +. pause) (Probe { p_proc = q; p_since = since })
        end
    | _ -> ()
  in
  let handle_rejoin ~now q =
    match pstate.(q) with
    | P_down { since; _ } ->
        (* transient outage resolved: work planned inside the window never
           ran — catch up with an explicit repair decision *)
        pstate.(q) <- P_up;
        replan ~now ~trigger:"rejoin" ~extra_kills:[ (q, since) ] ();
        enforce_deadlines ~now
    | P_dead ->
        pstate.(q) <- P_up;
        if not (budget_exhausted ()) then begin
          replan ~now ~trigger:"rejoin" ();
          enforce_deadlines ~now
        end
    | P_up -> ()
  in
  (* ---- main loop ---- *)
  List.iter (fun (e : Event.t) -> push e.Event.at (Ext e.Event.kind))
    (Event.sort events);
  let rec loop () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (t, _, ev) ->
        last_now := max !last_now t;
        let t = !last_now in
        advance ~now:t;
        (match ev with
        | Ext (Event.Arrive spec) ->
            incr events_processed;
            handle_arrival ~now:t spec
        | Ext (Event.Crash q) ->
            incr events_processed;
            handle_crash ~now:t q
        | Ext (Event.Down q) ->
            incr events_processed;
            handle_down ~now:t q
        | Ext (Event.Rejoin q) ->
            incr events_processed;
            handle_rejoin ~now:t q
        | Probe { p_proc; p_since } -> handle_probe ~now:t p_proc p_since);
        loop ()
  in
  loop ();
  (* ---- drain: finish active work, admit what the queue still holds ---- *)
  let rec drain () =
    if !waitq <> [] && not (budget_exhausted ()) then begin
      let t =
        if active_count () < config.max_active then !last_now
        else
          match !plan with
          | None -> !last_now
          | Some pl ->
              List.fold_left
                (fun acc (j, off) ->
                  if j.jstate = Active then min acc (job_finish pl (j, off))
                  else acc)
                infinity pl.playout
      in
      let t = if t = infinity then !last_now else max t !last_now in
      last_now := t;
      advance ~now:t;
      enforce_deadlines ~now:t;
      drain ()
    end
  in
  drain ();
  List.iter
    (fun j ->
      if j.jstate = Queued then begin
        j.jstate <- Rejected;
        incr rejected
      end)
    !waitq;
  waitq := [];
  (match !plan with
  | None -> ()
  | Some pl ->
      List.iter
        (fun (j, off) -> if j.jstate = Active then complete_job (j, off) pl)
        pl.playout);
  let makespan =
    match !plan with None -> 0. | Some pl -> Schedule.makespan pl.psched
  in
  {
    schedule = Option.map (fun pl -> pl.psched) !plan;
    graph = Option.map (fun pl -> pl.pgraph) !plan;
    makespan;
    events_processed = !events_processed;
    replans = List.rev !replans;
    jobs =
      List.rev_map
        (fun j ->
          {
            id = j.jid;
            arrived = j.jarrived;
            spec = j.jspec;
            state = j.jstate;
            finish = j.jfinish;
            missed = j.jmissed;
          })
        !all_jobs;
    completed = !completed;
    deadline_misses = !misses;
    shed = !shed;
    rejected = !rejected;
    retries = !retries;
    backoff_s = !backoff_s;
    budget_exhausted = budget_exhausted ();
  }

let pp_state fmt = function
  | Queued -> Format.pp_print_string fmt "queued"
  | Active -> Format.pp_print_string fmt "active"
  | Completed -> Format.pp_print_string fmt "completed"
  | Shed -> Format.pp_print_string fmt "shed"
  | Rejected -> Format.pp_print_string fmt "rejected"

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>events processed: %d@,\
     jobs:             %d (%d completed, %d shed, %d rejected)@,\
     replans:          %d%s@,\
     deadline misses:  %d@,\
     retries:          %d@,\
     final makespan:   %g@]"
    o.events_processed (List.length o.jobs) o.completed o.shed o.rejected
    (List.length o.replans)
    (if o.budget_exhausted then " (budget exhausted)" else "")
    o.deadline_misses o.retries o.makespan
