type snapshot = {
  evaluations : int;
  pruned_evaluations : int;
  aborted_evaluations : int;
  route_cache_hits : int;
  gap_probes : int;
  joint_gap_probes : int;
  tentative_hops : int;
  commits : int;
  copies : int;
  retries : int;
  repairs : int;
  backoff_s : float;
  rollbacks : int;
  replayed_tasks : int;
  search_pruned_nodes : int;
  replans : int;
  shed_jobs : int;
  frozen_tasks : int;
  deadline_misses : int;
  requests : int;
  batched_replans : int;
  queued_jobs : int;
}

let zero : snapshot =
  {
    evaluations = 0;
    pruned_evaluations = 0;
    aborted_evaluations = 0;
    route_cache_hits = 0;
    gap_probes = 0;
    joint_gap_probes = 0;
    tentative_hops = 0;
    commits = 0;
    copies = 0;
    retries = 0;
    repairs = 0;
    backoff_s = 0.;
    rollbacks = 0;
    replayed_tasks = 0;
    search_pruned_nodes = 0;
    replans = 0;
    shed_jobs = 0;
    frozen_tasks = 0;
    deadline_misses = 0;
    requests = 0;
    batched_replans = 0;
    queued_jobs = 0;
  }

(* One mutable record rather than eleven refs: a single cache line, and
   the field stores compile to plain [mov]s. *)
type state = {
  mutable evaluations : int;
  mutable pruned_evaluations : int;
  mutable aborted_evaluations : int;
  mutable route_cache_hits : int;
  mutable gap_probes : int;
  mutable joint_gap_probes : int;
  mutable tentative_hops : int;
  mutable commits : int;
  mutable copies : int;
  mutable retries : int;
  mutable repairs : int;
  mutable backoff_s : float;
  mutable rollbacks : int;
  mutable replayed_tasks : int;
  mutable search_pruned_nodes : int;
  mutable replans : int;
  mutable shed_jobs : int;
  mutable frozen_tasks : int;
  mutable deadline_misses : int;
  mutable requests : int;
  mutable batched_replans : int;
  mutable queued_jobs : int;
}

(* Domain-local scratch: every domain bumps its own record, so workers of
   a {!Prelude.Pool} sweep never contend (or race) on shared counters.
   The pool merges worker snapshots into the spawning domain at its
   barrier, making totals independent of how the work was sharded. *)
let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        evaluations = 0;
        pruned_evaluations = 0;
        aborted_evaluations = 0;
        route_cache_hits = 0;
        gap_probes = 0;
        joint_gap_probes = 0;
        tentative_hops = 0;
        commits = 0;
        copies = 0;
        retries = 0;
        repairs = 0;
        backoff_s = 0.;
        rollbacks = 0;
        replayed_tasks = 0;
        search_pruned_nodes = 0;
        replans = 0;
        shed_jobs = 0;
        frozen_tasks = 0;
        deadline_misses = 0;
        requests = 0;
        batched_replans = 0;
        queued_jobs = 0;
      })

let state () = Domain.DLS.get key

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let reset () =
  let s = state () in
  s.evaluations <- 0;
  s.pruned_evaluations <- 0;
  s.aborted_evaluations <- 0;
  s.route_cache_hits <- 0;
  s.gap_probes <- 0;
  s.joint_gap_probes <- 0;
  s.tentative_hops <- 0;
  s.commits <- 0;
  s.copies <- 0;
  s.retries <- 0;
  s.repairs <- 0;
  s.backoff_s <- 0.;
  s.rollbacks <- 0;
  s.replayed_tasks <- 0;
  s.search_pruned_nodes <- 0;
  s.replans <- 0;
  s.shed_jobs <- 0;
  s.frozen_tasks <- 0;
  s.deadline_misses <- 0;
  s.requests <- 0;
  s.batched_replans <- 0;
  s.queued_jobs <- 0

let snapshot () : snapshot =
  let s = state () in
  {
    evaluations = s.evaluations;
    pruned_evaluations = s.pruned_evaluations;
    aborted_evaluations = s.aborted_evaluations;
    route_cache_hits = s.route_cache_hits;
    gap_probes = s.gap_probes;
    joint_gap_probes = s.joint_gap_probes;
    tentative_hops = s.tentative_hops;
    commits = s.commits;
    copies = s.copies;
    retries = s.retries;
    repairs = s.repairs;
    backoff_s = s.backoff_s;
    rollbacks = s.rollbacks;
    replayed_tasks = s.replayed_tasks;
    search_pruned_nodes = s.search_pruned_nodes;
    replans = s.replans;
    shed_jobs = s.shed_jobs;
    frozen_tasks = s.frozen_tasks;
    deadline_misses = s.deadline_misses;
    requests = s.requests;
    batched_replans = s.batched_replans;
    queued_jobs = s.queued_jobs;
  }

let merge (d : snapshot) =
  let s = state () in
  s.evaluations <- s.evaluations + d.evaluations;
  s.pruned_evaluations <- s.pruned_evaluations + d.pruned_evaluations;
  s.aborted_evaluations <- s.aborted_evaluations + d.aborted_evaluations;
  s.route_cache_hits <- s.route_cache_hits + d.route_cache_hits;
  s.gap_probes <- s.gap_probes + d.gap_probes;
  s.joint_gap_probes <- s.joint_gap_probes + d.joint_gap_probes;
  s.tentative_hops <- s.tentative_hops + d.tentative_hops;
  s.commits <- s.commits + d.commits;
  s.copies <- s.copies + d.copies;
  s.retries <- s.retries + d.retries;
  s.repairs <- s.repairs + d.repairs;
  s.backoff_s <- s.backoff_s +. d.backoff_s;
  s.rollbacks <- s.rollbacks + d.rollbacks;
  s.replayed_tasks <- s.replayed_tasks + d.replayed_tasks;
  s.search_pruned_nodes <- s.search_pruned_nodes + d.search_pruned_nodes;
  s.replans <- s.replans + d.replans;
  s.shed_jobs <- s.shed_jobs + d.shed_jobs;
  s.frozen_tasks <- s.frozen_tasks + d.frozen_tasks;
  s.deadline_misses <- s.deadline_misses + d.deadline_misses;
  s.requests <- s.requests + d.requests;
  s.batched_replans <- s.batched_replans + d.batched_replans;
  s.queued_jobs <- s.queued_jobs + d.queued_jobs

let diff (a : snapshot) (b : snapshot) : snapshot =
  {
    evaluations = b.evaluations - a.evaluations;
    pruned_evaluations = b.pruned_evaluations - a.pruned_evaluations;
    aborted_evaluations = b.aborted_evaluations - a.aborted_evaluations;
    route_cache_hits = b.route_cache_hits - a.route_cache_hits;
    gap_probes = b.gap_probes - a.gap_probes;
    joint_gap_probes = b.joint_gap_probes - a.joint_gap_probes;
    tentative_hops = b.tentative_hops - a.tentative_hops;
    commits = b.commits - a.commits;
    copies = b.copies - a.copies;
    retries = b.retries - a.retries;
    repairs = b.repairs - a.repairs;
    backoff_s = b.backoff_s -. a.backoff_s;
    rollbacks = b.rollbacks - a.rollbacks;
    replayed_tasks = b.replayed_tasks - a.replayed_tasks;
    search_pruned_nodes = b.search_pruned_nodes - a.search_pruned_nodes;
    replans = b.replans - a.replans;
    shed_jobs = b.shed_jobs - a.shed_jobs;
    frozen_tasks = b.frozen_tasks - a.frozen_tasks;
    deadline_misses = b.deadline_misses - a.deadline_misses;
    requests = b.requests - a.requests;
    batched_replans = b.batched_replans - a.batched_replans;
    queued_jobs = b.queued_jobs - a.queued_jobs;
  }

(* The print order below is part of the CLI contract (cram tests pin it):
   evaluations, pruned evaluations, route-cache hits, gap probes, joint
   gap probes, tentative hops, commits, copies — then aborted
   evaluations and the fault block (retries, repairs, backoff time), each
   only when something bumped it.  Every line sits in one vertical box,
   so each [@,] breaks whatever box the caller prints it in. *)
let pp fmt (c : snapshot) =
  Format.fprintf fmt
    "@[<v>evaluations:      %d@,\
     pruned evaluations: %d@,\
     route-cache hits: %d@,\
     gap probes:       %d@,\
     joint gap probes: %d@,\
     tentative hops:   %d@,\
     commits:          %d@,\
     copies:           %d"
    c.evaluations c.pruned_evaluations c.route_cache_hits c.gap_probes
    c.joint_gap_probes c.tentative_hops c.commits c.copies;
  (* only a port-regime scan with an incumbent aborts a candidate, so
     every other run keeps its historical output *)
  if c.aborted_evaluations <> 0 then
    Format.fprintf fmt "@,aborted evaluations: %d" c.aborted_evaluations;
  (* fault-handling counters only appear once something bumped them, so
     fault-free runs keep their historical output *)
  if c.retries <> 0 || c.repairs <> 0 || c.backoff_s <> 0. then
    Format.fprintf fmt
      "@,retries:          %d@,\
       repairs:          %d@,\
       backoff time:     %g"
      c.retries c.repairs c.backoff_s;
  (* incremental-kernel counters follow the same convention: from-scratch
     builds never print them *)
  if c.rollbacks <> 0 || c.replayed_tasks <> 0 || c.search_pruned_nodes <> 0
  then
    Format.fprintf fmt
      "@,rollbacks:        %d@,\
       replayed tasks:   %d@,\
       search pruned:    %d"
      c.rollbacks c.replayed_tasks c.search_pruned_nodes;
  (* rolling-horizon online counters: offline runs never print them *)
  if
    c.replans <> 0 || c.shed_jobs <> 0 || c.frozen_tasks <> 0
    || c.deadline_misses <> 0
  then
    Format.fprintf fmt
      "@,replans:          %d@,\
       shed jobs:        %d@,\
       frozen tasks:     %d@,\
       deadline misses:  %d"
      c.replans c.shed_jobs c.frozen_tasks c.deadline_misses;
  (* scheduld daemon counters: anything else never prints them *)
  if c.requests <> 0 || c.batched_replans <> 0 || c.queued_jobs <> 0 then
    Format.fprintf fmt
      "@,requests:         %d@,\
       batched replans:  %d@,\
       queued jobs:      %d"
      c.requests c.batched_replans c.queued_jobs;
  Format.fprintf fmt "@]"

let evaluation () =
  if !on then
    let s = state () in
    s.evaluations <- s.evaluations + 1
[@@inline]

let pruned_evaluation () =
  if !on then
    let s = state () in
    s.pruned_evaluations <- s.pruned_evaluations + 1
[@@inline]

let aborted_evaluation () =
  if !on then
    let s = state () in
    s.aborted_evaluations <- s.aborted_evaluations + 1
[@@inline]

let route_cache_hit () =
  if !on then
    let s = state () in
    s.route_cache_hits <- s.route_cache_hits + 1
[@@inline]

let gap_probe () =
  if !on then
    let s = state () in
    s.gap_probes <- s.gap_probes + 1
[@@inline]

let joint_gap_probe () =
  if !on then
    let s = state () in
    s.joint_gap_probes <- s.joint_gap_probes + 1
[@@inline]

let tentative_hop () =
  if !on then
    let s = state () in
    s.tentative_hops <- s.tentative_hops + 1
[@@inline]

let commit () =
  if !on then
    let s = state () in
    s.commits <- s.commits + 1
[@@inline]

let copy () =
  if !on then
    let s = state () in
    s.copies <- s.copies + 1
[@@inline]

let retry () =
  if !on then
    let s = state () in
    s.retries <- s.retries + 1
[@@inline]

let repair () =
  if !on then
    let s = state () in
    s.repairs <- s.repairs + 1
[@@inline]

let backoff dt =
  if !on then
    let s = state () in
    s.backoff_s <- s.backoff_s +. dt
[@@inline]

let rollback () =
  if !on then
    let s = state () in
    s.rollbacks <- s.rollbacks + 1
[@@inline]

let replayed_task () =
  if !on then
    let s = state () in
    s.replayed_tasks <- s.replayed_tasks + 1
[@@inline]

let search_pruned_node () =
  if !on then
    let s = state () in
    s.search_pruned_nodes <- s.search_pruned_nodes + 1
[@@inline]

let replan () =
  if !on then
    let s = state () in
    s.replans <- s.replans + 1
[@@inline]

let shed_job () =
  if !on then
    let s = state () in
    s.shed_jobs <- s.shed_jobs + 1
[@@inline]

let frozen_task () =
  if !on then
    let s = state () in
    s.frozen_tasks <- s.frozen_tasks + 1
[@@inline]

let deadline_miss () =
  if !on then
    let s = state () in
    s.deadline_misses <- s.deadline_misses + 1
[@@inline]

let server_request () =
  if !on then
    let s = state () in
    s.requests <- s.requests + 1
[@@inline]

let batched_replan () =
  if !on then
    let s = state () in
    s.batched_replans <- s.batched_replans + 1
[@@inline]

let queued_job () =
  if !on then
    let s = state () in
    s.queued_jobs <- s.queued_jobs + 1
[@@inline]
