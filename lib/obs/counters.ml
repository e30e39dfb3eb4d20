(* Print groups: [Base] always prints; every other group prints only when
   one of its members is nonzero, so runs that never touch a subsystem
   keep their historical [--stats] output. *)
type group = Base | Aborted | Fault | Incremental | Online | Daemon
type entry = { key : string; label : string; group : group }

let table = ref []

let register key label group =
  table := { key; label; group } :: !table;
  List.length !table - 1

type counter = int

(* The registry: one line per counter (JSON key, [pp] label, group).
   Registration order is [pp] order and the Chrome track's key order. *)
let evaluations = register "evaluations" "evaluations" Base
let pruned_evaluations = register "pruned_evaluations" "pruned evaluations" Base
let route_cache_hits = register "route_cache_hits" "route-cache hits" Base
let joint_gap_probes = register "joint_gap_probes" "joint gap probes" Base
let tentative_hops = register "tentative_hops" "tentative hops" Base
let commits = register "commits" "commits" Base
let copies = register "copies" "copies" Base
let aborted_evaluations = register "aborted_evaluations" "aborted evaluations" Aborted
let retries = register "retries" "retries" Fault
let repairs = register "repairs" "repairs" Fault
let backoff_slot = register "backoff_s" "backoff time" Fault
let rollbacks = register "rollbacks" "rollbacks" Incremental
let replayed_tasks = register "replayed_tasks" "replayed tasks" Incremental
let search_pruned_nodes = register "search_pruned_nodes" "search pruned" Incremental
let replans = register "replans" "replans" Online
let shed_jobs = register "shed_jobs" "shed jobs" Online
let frozen_tasks = register "frozen_tasks" "frozen tasks" Online
let deadline_misses = register "deadline_misses" "deadline misses" Online
let requests = register "requests" "requests" Daemon
let batched_replans = register "batched_replans" "batched replans" Daemon
let queued_jobs = register "queued_jobs" "queued jobs" Daemon

let entries = Array.of_list (List.rev !table)
let size = Array.length entries

(* Integer counts are indexed by counter (the backoff slot among them
   stays 0); the one float, [backoff_s], has its own field.  A domain's
   live state and a snapshot share this type: the state is updated in
   place, a snapshot is a fresh copy that nothing updates. *)
type snapshot = { counts : int array; mutable backoff_s : float }

let fresh () = { counts = Array.make size 0; backoff_s = 0. }
let zero = fresh ()

(* Domain-local scratch: every domain bumps its own state, so workers of
   a {!Prelude.Pool} sweep never contend (or race) on shared counters.
   The pool merges worker snapshots into the spawning domain at its
   barrier, making totals independent of how the work was sharded. *)
let key : snapshot Domain.DLS.key = Domain.DLS.new_key fresh
let state () = Domain.DLS.get key

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let reset () =
  let s = state () in
  Array.fill s.counts 0 size 0;
  s.backoff_s <- 0.

let snapshot () =
  let s = state () in
  { counts = Array.copy s.counts; backoff_s = s.backoff_s }

let merge d =
  let s = state () in
  Array.iteri (fun i n -> s.counts.(i) <- s.counts.(i) + n) d.counts;
  s.backoff_s <- s.backoff_s +. d.backoff_s

let diff a b =
  { counts = Array.map2 ( - ) b.counts a.counts;
    backoff_s = b.backoff_s -. a.backoff_s }

let get s c = s.counts.(c)
let backoff_s s = s.backoff_s
let value s i = if i = backoff_slot then s.backoff_s else float s.counts.(i)
let to_list s = List.init size (fun i -> (entries.(i).key, value s i))

(* Every line is [label ^ ":"] padded to 17 columns, then the value, all
   in one vertical box, so each [@,] breaks whatever box the caller
   prints it in. *)
let pp fmt s =
  let live =
    List.filteri (fun i _ -> value s i <> 0.) (Array.to_list entries)
  in
  let shown g = g = Base || List.exists (fun e -> e.group = g) live in
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i e ->
      if shown e.group then begin
        if i > 0 then Format.fprintf fmt "@,";
        let label = e.label ^ ":" in
        if i = backoff_slot then Format.fprintf fmt "%-17s %g" label s.backoff_s
        else Format.fprintf fmt "%-17s %d" label s.counts.(i)
      end)
    entries;
  Format.fprintf fmt "@]"

let bump c =
  if !on then
    let counts = (state ()).counts in
    Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
[@@inline]

let backoff dt =
  if !on then
    let s = state () in
    s.backoff_s <- s.backoff_s +. dt
[@@inline]
