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

type pstate =
  | P_up
  | P_down of { since : float; attempt : int }
  | P_dead of { since : float }

type jrec = {
  jid : int;
  jarrived : float;
  jspec : Event.job;
  jgraph : Graph.t;
  jdeadline : float option;  (** absolute *)
  mutable jstate : job_state;
  mutable jfinish : float;  (** [nan] until [Completed] *)
}

type plan = {
  pgraph : Graph.t;
  psched : Schedule.t;
  pengine : Engine.t option;  (** [None] right after the initial heuristic *)
  playout : (jrec * int) list;  (** members in admission order, offsets *)
  pgen : int;  (** membership generation this plan was built for *)
}

(* One surviving copy of a frozen task, as the old schedule placed it:
   its processor, its start and the provenance chains that fed it, in
   commit order. *)
type frozen_copy = {
  fproc : int;
  fstart : float;
  fcomms : Schedule.comm list;  (** name edges of the old plan's graph *)
}

(* What a re-plan keeps of the old plan.  Each frozen task's surviving
   copies are keyed by (job, local task), independently of composite task
   ids, so they survive graph recomposition (admission and shedding shift
   offsets).  A task may survive as several copies (duplication-aware
   plans); the head of its list is the primary the re-plan re-commits
   first. *)
type frozen = {
  decisions : (int * int, frozen_copy list) Hashtbl.t;
  remap : bool array;  (** old-plan tasks to re-plan *)
  kept : Schedule.placement list array;  (** old-plan surviving copies *)
}

type qev = Ext of Event.kind | Probe of { p_proc : int; p_since : float }

type state = {
  config : config;
  plat : Platform.t;
  pstate : pstate array;
  mutable members : jrec list;  (** active jobs, admission order *)
  mutable gen : int;  (** bumped whenever [members] changes *)
  mutable plan : plan option;
  mutable waitq : jrec list;
  mutable jobs : jrec list;  (** every arrival, newest first *)
  executed : (int * int, int * float * float) Hashtbl.t;
  mutable replans : replan_report list;  (** newest first *)
  mutable retries : int;
  mutable backoff_s : float;
  mutable now : float;
  queue : (float * int * qev) Pqueue.t;
  mutable qseq : int;
}

let budget_exhausted st = List.length st.replans >= st.config.replan_budget
let procs st = List.init (Array.length st.pstate) Fun.id
let candidates st = List.filter (fun q -> st.pstate.(q) = P_up) (procs st)

let down_kills st =
  List.filter_map
    (fun q ->
      match st.pstate.(q) with
      | P_down { since; _ } | P_dead { since } -> Some (q, since)
      | P_up -> None)
    (procs st)

let active_count st =
  List.length (List.filter (fun j -> j.jstate = Active) st.members)

let job_tasks j = Graph.n_tasks j.jgraph

let job_copies pl (j, off) =
  List.concat_map
    (fun local -> Schedule.copies pl.psched (off + local))
    (List.init (job_tasks j) Fun.id)

(* a duplicated task completes at its earliest copy's finish *)
let job_finish pl (j, off) =
  let fin = ref 0. in
  for local = 0 to job_tasks j - 1 do
    let f = Schedule.earliest_finish pl.psched (off + local) in
    if f > !fin then fin := f
  done;
  !fin

(* finishing at [fin] misses the job's deadline *)
let late j fin = match j.jdeadline with Some d -> fin > d | None -> false

(* each composite task's job and that job's offset *)
let owners graph layout =
  let owner = Array.make (Graph.n_tasks graph) (List.hd layout) in
  List.iter
    (fun ((j, off) as m) -> Array.fill owner off (job_tasks j) m)
    layout;
  owner

let set_plan st (graph, layout) psched pengine =
  st.plan <-
    Some { pgraph = graph; psched; pengine; playout = layout; pgen = st.gen }

let push st at ev =
  st.qseq <- st.qseq + 1;
  Pqueue.add st.queue (at, st.qseq, ev)

(* ---- the re-planning core ---- *)

(* Split the old plan into frozen copies and killed work, voiding the
   executed records of started work the kills take away. *)
let freeze st ~kills =
  let now = st.now in
  let decisions = Hashtbl.create 256 in
  match st.plan with
  | None -> { decisions; remap = [||]; kept = [||] }
  | Some pl ->
      let g = pl.pgraph and s = pl.psched in
      let n = Graph.n_tasks g in
      (* a copy survives when it started before [now] and no down window
         kills it; a task needs re-planning only when no copy survives — a
         live replica satisfies a crashed task *)
      let copy_kept (c : Schedule.placement) =
        c.start < now
        && not
             (List.exists
                (fun (k, since) -> c.proc = k && c.finish > since)
                kills)
      in
      let kept =
        Array.init n (fun v -> List.filter copy_kept (Schedule.copies s v))
      in
      let remap = Array.map (fun k -> k = []) kept in
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
         topological order — marking propagates transitively because every
         task is visited before its successors *)
      Array.iter
        (fun v ->
          if remap.(v) then
            Graph.iter_succ_edges g v ~f:(fun e ->
                remap.(Graph.edge_dst g e) <- true))
        (Graph.topological_order g);
      let owner = owners g pl.playout in
      (* provenance chains, assigned to the consumer copy they feed;
         chains are contiguous runs in commit order *)
      let hops_tbl : (int * int, Schedule.comm) Hashtbl.t = Hashtbl.create 64 in
      let nc = Schedule.n_comm_events s in
      let i = ref 0 in
      while !i < nc do
        let first = !i in
        incr i;
        while !i < nc && not (Schedule.comm_head_at s !i) do
          incr i
        done;
        let h0 = Schedule.comm_at s first in
        let e = h0.Schedule.edge in
        let u = Graph.edge_src g e and v = Graph.edge_dst g e in
        let dst = (Schedule.comm_at s (!i - 1)).Schedule.dst_proc in
        (* a chain survives only when both endpoint copies do *)
        if
          (not remap.(v))
          && List.exists (fun (c : Schedule.placement) -> c.proc = dst) kept.(v)
          && List.exists
               (fun (c : Schedule.placement) -> c.proc = h0.Schedule.src_proc)
               kept.(u)
        then
          for k = first to !i - 1 do
            Hashtbl.add hops_tbl (v, dst) (Schedule.comm_at s k)
          done
      done;
      let to_copy v (c : Schedule.placement) =
        {
          fproc = c.proc;
          fstart = c.start;
          fcomms = List.rev (Hashtbl.find_all hops_tbl (v, c.proc));
        }
      in
      for v = 0 to n - 1 do
        let j, off = owner.(v) in
        let q = Schedule.placement_exn s v in
        (* a started primary that did not survive has a void executed
           record — the one legitimate removal.  Either a crash/outage
           killed the work, or the earliest surviving replica takes over
           as primary *)
        let primary_kept =
          (not remap.(v))
          && List.exists
               (fun (c : Schedule.placement) -> c.proc = q.Schedule.proc)
               kept.(v)
        in
        if (not primary_kept) && q.Schedule.start < now then
          Hashtbl.remove st.executed (j.jid, v - off);
        if not remap.(v) then
          Hashtbl.replace decisions (j.jid, v - off)
            (List.map (to_copy v) kept.(v))
      done;
      { decisions; remap; kept }

let compose members =
  let graph, offs =
    Graph.disjoint_union (List.map (fun j -> j.jgraph) members)
  in
  (graph, List.mapi (fun i j -> (j, offs.(i))) members)

(* The two ways to get an engine for a re-plan.  Each returns the graph,
   layout and engine, the frozen copies still to replay — as (task,
   copies) items in replay order — and the tasks left to re-schedule. *)

(* Incremental: rewind the current engine's commit log to the longest
   all-frozen prefix.  The surviving commits past that point are replayed
   copy by copy, in their original order. *)
let rewound pl fz =
  let e = Option.get pl.pengine in
  let committed i =
    let v = Engine.commit_task_at e i in
    let q = Engine.commit_proc_at e i in
    (v, if q >= 0 then q else Schedule.proc_of_exn pl.psched v)
  in
  (* a commit survives unless its task is re-planned or the specific copy
     it placed did not survive *)
  let survives (v, q) =
    (not fz.remap.(v))
    && List.exists (fun (c : Schedule.placement) -> c.proc = q) fz.kept.(v)
  in
  let nc = Engine.n_commits e in
  let k = ref 0 in
  while !k < nc && survives (committed !k) do
    incr k
  done;
  let owner = owners pl.pgraph pl.playout in
  (* captured before the rewind erases their placements *)
  let pending =
    List.init (nc - !k) (fun i -> committed (!k + i))
    |> List.filter survives
    |> List.map (fun (v, q) ->
           let j, off = owner.(v) in
           let copies = Hashtbl.find fz.decisions (j.jid, v - off) in
           (v, [ List.find (fun c -> c.fproc = q) copies ]))
  in
  Engine.rewind e ~to_:!k;
  (pl.pgraph, pl.playout, e, pending, fz.remap)

(* Rebuild: a fresh engine on the current membership's composite graph;
   every frozen task is replayed, in topological order. *)
let rebuilt st fz =
  let graph, layout = compose st.members in
  let params = st.config.params in
  let e =
    Engine.create ~policy:params.Params.policy
      (Schedule.create ~graph ~platform:st.plat ~model:params.Params.model ())
  in
  (* a frozen hop names an edge of the old graph: re-derive it from its
     endpoints, shifted to the job's new offset *)
  let retarget j off c =
    let old = Option.get st.plan in
    let shift = off - List.assq j old.playout in
    let hop (h : Schedule.comm) =
      let src = Graph.edge_src old.pgraph h.edge + shift
      and dst = Graph.edge_dst old.pgraph h.edge + shift in
      { h with edge = (Option.get (Graph.find_edge graph ~src ~dst)).Graph.id }
    in
    { c with fcomms = List.map hop c.fcomms }
  in
  let owner = owners graph layout in
  let pending =
    Array.to_list (Graph.topological_order graph)
    |> List.filter_map (fun v ->
           let j, off = owner.(v) in
           Hashtbl.find_opt fz.decisions (j.jid, v - off)
           |> Option.map (fun copies -> (v, List.map (retarget j off) copies)))
  in
  let todo = Array.make (Graph.n_tasks graph) true in
  List.iter (fun (v, _) -> todo.(v) <- false) pending;
  (graph, layout, e, pending, todo)

(* Replay the frozen copies the engine lacks, then re-schedule the rest
   onto the alive processors, floored at [now]. *)
let replan_suffix st fz ~cands ~incremental =
  let graph, layout, e, pending, todo =
    if incremental then rewound (Option.get st.plan) fz else rebuilt st fz
  in
  let s = Engine.schedule e in
  List.iter
    (fun (v, copies) ->
      List.iter
        (fun c ->
          Engine.set_candidate e ~task:v ~proc:c.fproc ~start:c.fstart
            c.fcomms;
          Engine.keep e;
          (* the first copy replayed becomes the primary *)
          if Schedule.is_placed s v then Engine.commit_kept_copy e ~task:v
          else Engine.commit_kept e ~task:v)
        copies;
      Obs.Counters.(bump replayed_tasks))
    pending;
  let remapped =
    Repair.schedule_suffix ~params:st.config.params ~floor:st.now
      ~candidates:cands e ~todo
  in
  set_plan st (graph, layout) s (Some e);
  List.length remapped

(* The contracts every re-plan keeps: Validate-clean output and a
   bit-identical executed prefix. *)
let check_contracts st ~trigger pl =
  let now = st.now in
  (match Validate.check pl.psched with
  | Ok () -> ()
  | Error msgs ->
      failwith
        (Printf.sprintf "Online.Driver: re-plan at t=%g (%s) is invalid: %s"
           now trigger (String.concat "; " msgs)));
  List.iter
    (fun (j, off) ->
      for local = 0 to job_tasks j - 1 do
        let q = Schedule.placement_exn pl.psched (off + local) in
        if q.Schedule.start < now then begin
          let seen = (q.Schedule.proc, q.Schedule.start, q.Schedule.finish) in
          match Hashtbl.find_opt st.executed (j.jid, local) with
          | None -> Hashtbl.replace st.executed (j.jid, local) seen
          | Some ((pr, s0, f0) as was) when was <> seen ->
              failwith
                (Printf.sprintf
                   "Online.Driver: frozen prefix changed at t=%g (%s): job %d \
                    task %d moved from p%d@[%g,%g] to p%d@[%g,%g]"
                   now trigger j.jid local pr s0 f0 q.Schedule.proc
                   q.Schedule.start q.Schedule.finish)
          | Some _ -> ()
        end
      done)
    pl.playout

let replan st ~trigger ?(extra_kills = []) () =
  if st.members <> [] then begin
    Obs.Counters.(bump replans);
    let now = st.now in
    let wall0 = Unix.gettimeofday () in
    let report =
      Obs.Span.with_ "replan" @@ fun () ->
      let kills = extra_kills @ down_kills st in
      let cands = candidates st in
      if cands = [] then
        failwith "Online.Driver: no processor available to re-plan onto";
      let fz = freeze st ~kills in
      let n_frozen = Hashtbl.length fz.decisions in
      for _ = 1 to n_frozen do
        Obs.Counters.(bump frozen_tasks)
      done;
      (* the commit log can be rewound only while the composite graph is
         the one the current engine was built on *)
      let incremental =
        match st.plan with
        | Some { pgen; pengine = Some _; _ } ->
            st.config.incremental && pgen = st.gen
        | _ -> false
      in
      let replanned =
        if
          Option.is_none st.plan && now <= 0.
          && List.length cands = Array.length st.pstate
        then begin
          (* the very first plan on a healthy platform belongs to the
             configured heuristic; later re-plans are repair-style *)
          let graph, layout = compose st.members in
          let entry = Registry.find st.config.heuristic in
          let s = entry.Registry.scheduler st.config.params st.plat graph in
          set_plan st (graph, layout) s None;
          Graph.n_tasks graph
        end
        else replan_suffix st fz ~cands ~incremental
      in
      let pl = Option.get st.plan in
      let wall_s = Unix.gettimeofday () -. wall0 in
      check_contracts st ~trigger pl;
      {
        at = now;
        trigger;
        incremental;
        frozen = n_frozen;
        replanned;
        wall_s;
        makespan = Schedule.makespan pl.psched;
      }
    in
    st.replans <- report :: st.replans
  end

(* Graceful degradation: shed lowest-priority unstarted work instead of
   missing a higher-priority deadline, one job per re-plan. *)
let rec enforce_deadlines st =
  match st.plan with
  | None -> ()
  | Some pl -> (
      let missing =
        List.find_opt
          (fun ((j, _) as job) ->
            j.jstate = Active && late j (job_finish pl job))
          pl.playout
      in
      match missing with
      | Some (protected, _) when not (budget_exhausted st) -> (
          let sheddable ((j, _) as job) =
            j.jstate = Active
            && not
                 (List.exists
                    (fun (c : Schedule.placement) -> c.start < st.now)
                    (job_copies pl job))
          in
          match
            Admission.shed_victim
              ~priority:(fun (j, _) -> j.jspec.Event.priority)
              ~id:(fun (j, _) -> j.jid)
              ~below:protected.jspec.Event.priority
              (Seq.filter sheddable (List.to_seq pl.playout))
          with
          | None -> ()
          | Some (j, _) ->
              j.jstate <- Shed;
              Obs.Counters.(bump shed_jobs);
              st.members <- List.filter (fun m -> m != j) st.members;
              st.gen <- st.gen + 1;
              disrupt st ~trigger:"shed" ())
      | _ -> ())

and disrupt st ~trigger ?extra_kills () =
  replan st ~trigger ?extra_kills ();
  enforce_deadlines st

let admit st ~trigger j =
  j.jstate <- Active;
  st.members <- st.members @ [ j ];
  st.gen <- st.gen + 1;
  disrupt st ~trigger ()

let complete_job pl ((j, _) as job) =
  j.jstate <- Completed;
  j.jfinish <- job_finish pl job;
  if late j j.jfinish then Obs.Counters.(bump deadline_misses)

(* completion sweep + admission of queued jobs once capacity frees *)
let advance st =
  (match st.plan with
  | None -> ()
  | Some pl ->
      List.iter
        (fun (j, off) ->
          if j.jstate = Active then begin
            (* a job whose plan touches a processor in a pending down
               window has not really finished — resolution (rejoin or
               give-up) will re-plan it *)
            let blocked =
              List.exists
                (fun (c : Schedule.placement) ->
                  match st.pstate.(c.proc) with
                  | P_down { since; _ } -> c.finish > since
                  | _ -> false)
                (job_copies pl (j, off))
            in
            if (not blocked) && job_finish pl (j, off) <= st.now then
              complete_job pl (j, off)
          end)
        pl.playout);
  let rec admit_waiting () =
    match st.waitq with
    | j :: rest
      when active_count st < st.config.max_active && not (budget_exhausted st)
      ->
        st.waitq <- rest;
        admit st ~trigger:"admit" j;
        admit_waiting ()
    | _ -> ()
  in
  admit_waiting ()

(* One queue event at time [t]: the completion sweep, then the event. *)
let step st t ev =
  st.now <- max st.now t;
  let now = st.now in
  advance st;
  let kill q ~since ~trigger =
    st.pstate.(q) <- P_dead { since };
    disrupt st ~trigger ()
  in
  match ev with
  | Probe { p_proc = q; p_since } -> (
      match st.pstate.(q) with
      | P_down { since; attempt } when since = p_since ->
          (* the processor is still unreachable: that retry failed *)
          st.retries <- st.retries + 1;
          Obs.Counters.(bump retries);
          let attempt = attempt + 1 in
          if attempt >= st.config.max_retries then
            (* give up: declare it dead and re-route its pending work *)
            kill q ~since ~trigger:"give-up"
          else begin
            st.pstate.(q) <- P_down { since; attempt };
            (* [backoff * 2^attempt], exact, and 0 (not NaN) when
               [backoff] is 0; [validate_input] keeps it finite *)
            let pause = Float.ldexp st.config.backoff attempt in
            st.backoff_s <- st.backoff_s +. pause;
            Obs.Counters.backoff pause;
            push st (now +. pause) (Probe { p_proc = q; p_since = since })
          end
      | _ -> ())
  | Ext kind -> (
      match kind with
      | Event.Arrive spec ->
          let tb = Suite.find spec.Event.testbed in
          let n = max spec.Event.n tb.Suite.min_n in
          let j =
            {
              jid = List.length st.jobs;
              jarrived = now;
              jspec = spec;
              jgraph = tb.Suite.build ~n ~ccr:spec.Event.ccr;
              jdeadline = Option.map (fun d -> now +. d) spec.Event.deadline;
              jstate = Rejected;
              jfinish = nan;
            }
          in
          st.jobs <- j :: st.jobs;
          if budget_exhausted st then ()
          else if active_count st < st.config.max_active then
            admit st ~trigger:"arrive" j
          else if List.length st.waitq < st.config.queue_cap then begin
            j.jstate <- Queued;
            st.waitq <- st.waitq @ [ j ]
          end
      | Event.Crash q ->
          let since =
            match st.pstate.(q) with P_down { since; _ } -> since | _ -> now
          in
          kill q ~since ~trigger:"crash"
      | Event.Down q -> (
          match st.pstate.(q) with
          | P_up ->
              st.pstate.(q) <- P_down { since = now; attempt = 0 };
              st.backoff_s <- st.backoff_s +. st.config.backoff;
              Obs.Counters.backoff st.config.backoff;
              push st (now +. st.config.backoff)
                (Probe { p_proc = q; p_since = now })
          | P_down _ | P_dead _ -> ())
      | Event.Rejoin q -> (
          match st.pstate.(q) with
          | P_down { since; _ } ->
              (* transient outage resolved: work planned inside the window
                 never ran — catch up with an explicit repair decision *)
              st.pstate.(q) <- P_up;
              disrupt st ~trigger:"rejoin" ~extra_kills:[ (q, since) ] ()
          | P_dead _ ->
              st.pstate.(q) <- P_up;
              if not (budget_exhausted st) then disrupt st ~trigger:"rejoin" ()
          | P_up -> ()))

(* After the trace: finish active work, admitting what the queue still
   holds as capacity frees. *)
let rec drain st =
  if st.waitq <> [] && not (budget_exhausted st) then begin
    (* with every slot taken, jump to the earliest active finish *)
    (match st.plan with
    | Some pl when active_count st >= st.config.max_active ->
        let t =
          List.fold_left
            (fun acc ((j, _) as job) ->
              if j.jstate = Active then min acc (job_finish pl job) else acc)
            infinity pl.playout
        in
        if t < infinity then st.now <- max t st.now
    | _ -> ());
    advance st;
    enforce_deadlines st;
    drain st
  end

let validate_input config plat events =
  let bad fmt = Printf.ksprintf invalid_arg ("Online.Driver.run: " ^^ fmt) in
  (match config.params.Params.model.Comm_model.regime with
  | Comm_model.Port -> ()
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ ->
      bad "only port-regime models are supported");
  if config.max_active < 1 then bad "max_active must be >= 1";
  if config.queue_cap < 0 then bad "negative queue_cap";
  if config.max_retries < 0 then bad "negative max_retries";
  if not (Float.is_finite config.backoff && config.backoff >= 0.) then
    bad "backoff must be finite and non-negative";
  (* the pauses double per retry: their sum stays below
     [backoff * 2^max_retries], which must be a finite time *)
  if not (Float.is_finite (Float.ldexp config.backoff config.max_retries)) then
    bad "backoff * 2^max_retries must be finite";
  let p = Platform.p plat in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.at < 0. then bad "negative event time";
      match e.Event.kind with
      | Event.Crash q | Event.Down q | Event.Rejoin q ->
          if q < 0 || q >= p then
            bad "processor %d out of range (platform has %d)" q p
      | Event.Arrive _ -> ())
    events;
  ignore (Registry.find config.heuristic)

let run ?(config = default_config) plat (events : Event.t list) =
  validate_input config plat events;
  let p = Platform.p plat in
  let st =
    {
      config;
      plat;
      pstate = Array.make p P_up;
      members = [];
      gen = 0;
      plan = None;
      waitq = [];
      jobs = [];
      executed = Hashtbl.create 256;
      replans = [];
      retries = 0;
      backoff_s = 0.;
      now = 0.;
      queue =
        Pqueue.create ~compare:(fun (t1, s1, _) (t2, s2, _) ->
            compare ((t1 : float), (s1 : int)) (t2, s2));
      qseq = 0;
    }
  in
  List.iter
    (fun (e : Event.t) -> push st e.Event.at (Ext e.Event.kind))
    (Event.sort events);
  let rec loop () =
    match Pqueue.pop st.queue with
    | None -> ()
    | Some (t, _, ev) ->
        step st t ev;
        loop ()
  in
  loop ();
  drain st;
  (* what the queue still holds is rejected; active work completes *)
  List.iter (fun j -> if j.jstate = Queued then j.jstate <- Rejected) st.waitq;
  st.waitq <- [];
  Option.iter
    (fun pl ->
      List.iter
        (fun (j, off) -> if j.jstate = Active then complete_job pl (j, off))
        pl.playout)
    st.plan;
  let jobs = List.rev st.jobs in
  let count f = List.length (List.filter f jobs) in
  {
    schedule = Option.map (fun pl -> pl.psched) st.plan;
    graph = Option.map (fun pl -> pl.pgraph) st.plan;
    makespan =
      (match st.plan with None -> 0. | Some pl -> Schedule.makespan pl.psched);
    events_processed = List.length events;
    replans = List.rev st.replans;
    jobs =
      List.map
        (fun j ->
          {
            id = j.jid;
            arrived = j.jarrived;
            spec = j.jspec;
            state = j.jstate;
            finish = j.jfinish;
            missed = late j j.jfinish;
          })
        jobs;
    completed = count (fun j -> j.jstate = Completed);
    deadline_misses = count (fun j -> late j j.jfinish);
    shed = count (fun j -> j.jstate = Shed);
    rejected = count (fun j -> j.jstate = Rejected);
    retries = st.retries;
    backoff_s = st.backoff_s;
    budget_exhausted = budget_exhausted st;
  }

let pp_outcome fmt (o : outcome) =
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
