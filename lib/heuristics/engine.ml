open Prelude
module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule
module Resource = Sched.Resource
module Comm_model = Commmodel.Comm_model

type policy = Insertion | Append

(* One direct hop of a cached route: endpoints, per-item cost, and the
   joint busy set as parallel timeline/resource-id arrays.  The separate
   send-side/recv-side sets serve the latency+overhead regime, whose
   endpoint overheads occupy the two sides over different windows. *)
type hop_set = {
  h_src : int;
  h_dst : int;
  h_cost : float;
  h_tls : Timeline.t array;
  h_ids : int array;
  h_send_tls : Timeline.t array;
  h_send_ids : int array;
  h_recv_tls : Timeline.t array;
  h_recv_ids : int array;
}

(* A priced candidate in flat form, so that pricing builds nothing: its
   hops as parallel arrays (prefix [p_n], in commit order) and its times
   in [p_times] — est, eft and, when [p_phased], the BSP phase window.
   Floats live in float arrays because a mutable float field of a mixed
   record is boxed on every write.  This is the only form a candidate
   takes: every commit reads it. *)
type priced = {
  mutable p_edge : int array;
  mutable p_src : int array;
  mutable p_dst : int array;
  mutable p_start : float array;
  mutable p_n : int;
  p_times : float array;
  mutable p_proc : int;
  mutable p_phased : bool;
}

let priced_create () =
  {
    p_edge = Array.make 8 0;
    p_src = Array.make 8 0;
    p_dst = Array.make 8 0;
    p_start = Array.make 8 0.;
    p_n = 0;
    p_times = Array.make 4 0.;
    p_proc = 0;
    p_phased = false;
  }

(* The engine owns every scratch structure the evaluation grid needs, so
   that pricing one (task, processor) candidate builds no list, record
   or closure.  Floats cross calls unboxed: a probe's query and answer
   travel in [q], and the bound, the execution time and the arena's
   inserts are inlined; the floats still boxed to cross a call are on
   colder paths:

   - [routes] caches, per ordered processor pair, the platform route with
     each hop's busy set and per-item cost ([route_cache_hits] counts
     reuse);
   - the {e arena} ([buf_s]/[buf_f]/[buf_len]) holds tentative busy
     intervals per stable resource id, each id's buffer sorted by start
     with abutting intervals coalesced into one run ({!arena_add}),
     reset in O(dirty ids) between candidates;
   - [ext_s]/[ext_f] stage the merged, start-sorted extras of one probe
     and [idx] is the joint-gap cursor scratch;
   - the [inc_*] arrays cache the incoming-communication table of the
     task being priced (predecessor finish, source, edge, source
     processor, edge data — sorted by the §4.3 greedy order), computed
     once per task rather than once per candidate;
   - the [sp_*] arrays cache, per incoming row, the bound's send-port
     probe ({!send_arrival}), valid while [sp_gen] equals [gen] and the
     first hop's duration equals [sp_dur];
   - [cur] receives the candidate being priced and [best] holds the
     kept one (a scan's incumbent); {!keep} swaps the two;
   - [cutoff.(0)] is the finish time at or after which the candidate in
     flight cannot win ({!set_cutoff}). *)
type t = {
  sched : Schedule.t;
  policy : policy;
  p : int;
  all_procs : int array;
  regime : Comm_model.regime;
  routes : hop_set array option array;
  comp_tls : Timeline.t array array;
  comp_ids : int array array;
  (* per processor, its send-only busy set (what a message leaving it
     holds on its side): the bound's stage 3 probes it *)
  send_tls : Timeline.t array array;
  send_ids : int array array;
  (* the BSP phase busy set (barrier + every compute); empty otherwise *)
  phase_tls : Timeline.t array;
  phase_ids : int array;
  (* arena: tentative intervals per resource id *)
  mutable buf_s : float array array;
  mutable buf_f : float array array;
  mutable buf_len : int array;
  mutable dirty : int array;
  mutable n_dirty : int;
  (* the probe in flight: its query cell ([q.(0)] after, then the slot;
     [q.(1)] duration) and its merged extras *)
  q : float array;
  mutable ext_s : float array;
  mutable ext_f : float array;
  mutable idx : int array;
  (* the candidate being priced, the scan's incumbent and its index in
     the scanned array (-1: none yet) *)
  mutable cur : priced;
  mutable best : priced;
  mutable best_idx : int;
  cutoff : float array;
  (* incoming-edge table of the task being priced *)
  mutable inc_task : int;
  mutable inc_len : int;
  mutable inc_fin : float array;
  mutable inc_src : int array;
  mutable inc_edge : int array;
  mutable inc_proc : int array;
  mutable inc_data : float array;
  mutable inc_max_fin : float;
  (* scan generation: bumped whenever committed state, [floor] or the
     incoming table may have changed, which voids the [sp_*] cache *)
  mutable gen : int;
  mutable sp_gen : int array;
  mutable sp_dur : float array;
  mutable sp_start : float array;
  (* the stage-3 gate's ceiling ([gate_at.(0)]), valid while [gate_gen]
     equals [gen]; per source processor, the most a route out of it costs
     per data item ([out_cost], negative until computed) *)
  mutable gate_gen : int;
  gate_at : float array;
  out_cost : float array;
  (* commit log: per commit, the task and the schedule's comm-event and
     phase counts before the commit — enough to rewind any suffix of
     commits in reverse order *)
  mutable log_task : int array;
  mutable log_comms : int array;
  mutable log_phases : int array;
  (* -1 for a whole-task commit; the copy's processor for a
     copy commit (rewound with [Schedule.unplace_copy]) *)
  mutable log_proc : int array;
  mutable log_len : int;
}

let create ?(policy = Insertion) sched =
  let plat = Schedule.platform sched in
  let res = Schedule.resource sched in
  let p = Platform.p plat in
  let nid = Resource.id_bound res in
  let regime = (Schedule.model sched).Comm_model.regime in
  let phase_tls, phase_ids =
    match regime with
    | Comm_model.Bsp _ ->
        let pairs = Resource.phase_busy_ids res in
        (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))
    | Comm_model.Port | Comm_model.Latency_overhead _ -> ([||], [||])
  in
  {
    sched;
    policy;
    p;
    all_procs = Array.init p Fun.id;
    regime;
    routes = Array.make (p * p) None;
    comp_tls = Array.init p (fun i -> [| Resource.compute res i |]);
    comp_ids = Array.init p (fun i -> [| Resource.compute_id res i |]);
    send_tls =
      Array.init p (fun i ->
          Array.of_list (List.map fst (Resource.send_busy_ids res i)));
    send_ids =
      Array.init p (fun i ->
          Array.of_list (List.map snd (Resource.send_busy_ids res i)));
    phase_tls;
    phase_ids;
    buf_s = Array.make (max nid 1) [||];
    buf_f = Array.make (max nid 1) [||];
    buf_len = Array.make (max nid 1) 0;
    dirty = Array.make (max nid 1) 0;
    n_dirty = 0;
    q = Array.make 2 0.;
    ext_s = Array.make 16 0.;
    ext_f = Array.make 16 0.;
    idx = Array.make 8 0;
    cur = priced_create ();
    best = priced_create ();
    best_idx = -1;
    cutoff = [| infinity |];
    inc_task = -1;
    inc_len = 0;
    inc_fin = [||];
    inc_src = [||];
    inc_edge = [||];
    inc_proc = [||];
    inc_data = [||];
    inc_max_fin = 0.;
    gen = 0;
    sp_gen = [||];
    sp_dur = [||];
    sp_start = [||];
    gate_gen = -1;
    gate_at = [| 0. |];
    out_cost = Array.make p (-1.);
    log_task = [||];
    log_comms = [||];
    log_phases = [||];
    log_proc = [||];
    log_len = 0;
  }

let schedule t = t.sched
let policy t = t.policy

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)
(* ------------------------------------------------------------------ *)

(* Link-contention models hand out fresh resource ids lazily; the arena
   grows to cover them. *)
let ensure_id t id =
  let cap = Array.length t.buf_len in
  if id >= cap then begin
    let cap' = max (id + 1) (max 4 (2 * cap)) in
    let bs = Array.make cap' [||] in
    let bf = Array.make cap' [||] in
    let bl = Array.make cap' 0 in
    let d = Array.make cap' 0 in
    Array.blit t.buf_s 0 bs 0 cap;
    Array.blit t.buf_f 0 bf 0 cap;
    Array.blit t.buf_len 0 bl 0 cap;
    Array.blit t.dirty 0 d 0 t.n_dirty;
    t.buf_s <- bs;
    t.buf_f <- bf;
    t.buf_len <- bl;
    t.dirty <- d
  end

let arena_reset t =
  for i = 0 to t.n_dirty - 1 do
    t.buf_len.(t.dirty.(i)) <- 0
  done;
  t.n_dirty <- 0

(* Record [[s, f)] as tentatively busy on resource [id].  Each id's
   buffer is a sorted run of disjoint intervals in which no two abut:
   an interval that touches a neighbour ([[a, s)] or [[f, c)]) is merged
   into it, since the busy set is a union of half-open intervals and
   [[a, b)] ∪ [[b, c)] = [[a, c)] blocks exactly what the two pieces
   did.  The earliest gap is therefore unchanged, and so is the last
   finish that [Append] reads; but the back-to-back messages that queue
   on a high-in-degree task's receive port collapse into one run, so a
   probe merges and walks O(runs) extras rather than O(messages).  Most
   intervals land at the tail, where nothing shifts; probes of later
   messages may still slot in front of earlier ones.  Zero-length
   intervals block nothing and are dropped, mirroring [Timeline.add]. *)
let[@inline] arena_add t id s f =
  if f > s then begin
    ensure_id t id;
    let n = t.buf_len.(id) in
    if n = 0 then begin
      t.dirty.(t.n_dirty) <- id;
      t.n_dirty <- t.n_dirty + 1
    end;
    let bs = t.buf_s.(id) and bf = t.buf_f.(id) in
    (* [pos]: the first interval starting after [s] *)
    let pos = ref n in
    while !pos > 0 && bs.(!pos - 1) > s do
      decr pos
    done;
    let pos = !pos in
    let left = pos > 0 && bf.(pos - 1) = s in
    let right = pos < n && bs.(pos) = f in
    if left && right then begin
      (* [s, f) fills the hole between two runs: join them *)
      bf.(pos - 1) <- bf.(pos);
      for i = pos to n - 2 do
        bs.(i) <- bs.(i + 1);
        bf.(i) <- bf.(i + 1)
      done;
      t.buf_len.(id) <- n - 1
    end
    else if left then bf.(pos - 1) <- f
    else if right then bs.(pos) <- s
    else begin
      if n = Array.length bs then begin
        let cap' = max 4 (2 * n) in
        t.buf_s.(id) <- Array.make cap' 0.;
        t.buf_f.(id) <- Array.make cap' 0.;
        Array.blit bs 0 t.buf_s.(id) 0 n;
        Array.blit bf 0 t.buf_f.(id) 0 n
      end;
      let bs = t.buf_s.(id) and bf = t.buf_f.(id) in
      for i = n downto pos + 1 do
        bs.(i) <- bs.(i - 1);
        bf.(i) <- bf.(i - 1)
      done;
      bs.(pos) <- s;
      bf.(pos) <- f;
      t.buf_len.(id) <- n + 1
    end
  end

(* Earliest slot of [duration] on the joint busy set of [tls] plus the
   arena's tentative intervals for [ids], at or after [after], honouring
   the policy.  The arena's intervals are merged into one start-sorted
   run in place ({!merge_extras}), so no float crosses a call per
   interval.  When the arena holds nothing for [ids] — every
   bound probe, and the compute probe whenever communication overlaps
   computation — there is nothing to merge, and one timeline is walked
   on its own ({!Timeline.earliest_gap}). *)
(* Stage the arena's [total] intervals for [ids] into [ext_s]/[ext_f]
   as one start-sorted run; returns its length. *)
let merge_extras t ~ids ~total =
  if total > Array.length t.ext_s then begin
    let cap = max total (2 * Array.length t.ext_s) in
    t.ext_s <- Array.make cap 0.;
    t.ext_f <- Array.make cap 0.
  end;
  let es = t.ext_s and ef = t.ext_f in
  let n = ref 0 in
  for j = 0 to Array.length ids - 1 do
    let id = ids.(j) in
    if id < Array.length t.buf_len then begin
      let bs = t.buf_s.(id) and bf = t.buf_f.(id) in
      for i = 0 to t.buf_len.(id) - 1 do
        let s = bs.(i) in
        let pos = ref !n in
        while !pos > 0 && es.(!pos - 1) > s do
          es.(!pos) <- es.(!pos - 1);
          ef.(!pos) <- ef.(!pos - 1);
          decr pos
        done;
        es.(!pos) <- s;
        ef.(!pos) <- bf.(i);
        incr n
      done
    end
  done;
  !n

(* The probe proper, over the query in [t.q] ({!Timeline.earliest_gap}
   and {!Timeline.earliest_gap_joint_arr} read and answer it in place):
   no float crosses a call, so nothing is boxed. *)
let probe_q t ~tls ~ids =
  let k = Array.length tls in
  (match t.policy with
  | Insertion -> ()
  | Append ->
      let a = ref t.q.(0) in
      for j = 0 to k - 1 do
        let lf = Timeline.last_finish tls.(j) in
        if lf > !a then a := lf;
        let id = ids.(j) in
        if id < Array.length t.buf_len then begin
          let n = t.buf_len.(id) in
          (* sorted by start and disjoint per id: the last finish is
             the max *)
          if n > 0 && t.buf_f.(id).(n - 1) > !a then
            a := t.buf_f.(id).(n - 1)
        end
      done;
      t.q.(0) <- !a);
  let total = ref 0 in
  for j = 0 to k - 1 do
    let id = ids.(j) in
    if id < Array.length t.buf_len then total := !total + t.buf_len.(id)
  done;
  if !total = 0 && k = 1 then Timeline.earliest_gap tls.(0) ~q:t.q
  else begin
    let n = merge_extras t ~ids ~total:!total in
    if k > Array.length t.idx then
      t.idx <- Array.make (max k (2 * Array.length t.idx)) 0;
    Timeline.earliest_gap_joint_arr tls ~k ~extra_s:t.ext_s ~extra_f:t.ext_f
      ~extra_len:n ~idx:t.idx ~q:t.q
  end

let[@inline] probe t ~tls ~ids ~after ~duration =
  t.q.(0) <- after;
  t.q.(1) <- duration;
  probe_q t ~tls ~ids;
  t.q.(0)

(* ------------------------------------------------------------------ *)
(* Route and incoming caches                                           *)
(* ------------------------------------------------------------------ *)

let route_for t ~src ~dst =
  let key = (src * t.p) + dst in
  match t.routes.(key) with
  | Some r ->
      Obs.Counters.(bump route_cache_hits);
      r
  | None ->
      let plat = Schedule.platform t.sched in
      let res = Schedule.resource t.sched in
      let r =
        Array.of_list
          (List.map
             (fun (a, b) ->
               let pairs = Resource.comm_busy_ids res ~src:a ~dst:b in
               let send_pairs = Resource.send_busy_ids res a in
               let recv_pairs = Resource.recv_busy_ids res b in
               {
                 h_src = a;
                 h_dst = b;
                 h_cost = Platform.hop_cost plat ~src:a ~dst:b;
                 h_tls = Array.of_list (List.map fst pairs);
                 h_ids = Array.of_list (List.map snd pairs);
                 h_send_tls = Array.of_list (List.map fst send_pairs);
                 h_send_ids = Array.of_list (List.map snd send_pairs);
                 h_recv_tls = Array.of_list (List.map fst recv_pairs);
                 h_recv_ids = Array.of_list (List.map snd recv_pairs);
               })
             (Platform.route plat ~src ~dst))
      in
      t.routes.(key) <- Some r;
      r

(* Row [i] of the incoming table: the copy of [src] that feeds remote
   consumers, the earliest-finishing one, ties to the lowest processor.
   For single-copy schedules this is exactly the primary placement,
   written straight into the row. *)
let rec pick_rep_copy t i = function
  | [] -> ()
  | (c : Schedule.placement) :: rest ->
      let bf = t.inc_fin.(i) in
      if c.finish < bf || (c.finish = bf && c.proc < t.inc_proc.(i)) then begin
        t.inc_fin.(i) <- c.finish;
        t.inc_proc.(i) <- c.proc
      end;
      pick_rep_copy t i rest

let set_rep_copy t i src =
  let sched = t.sched in
  t.inc_fin.(i) <- Schedule.finish_of_exn sched src;
  t.inc_proc.(i) <- Schedule.proc_of_exn sched src;
  if Schedule.has_dups sched then
    pick_rep_copy t i (Schedule.dup_copies sched src)

(* The finish of a copy of [src] local to [proc], if any — consulted by
   the port evaluators before pricing a remote transfer; [neg_infinity]
   when there is none, and always on a single-copy schedule (the primary
   case is handled by the [q = proc] test), keeping the historical path
   branch-for-branch identical.
   Inlined: the bound and the pricing ask it for every remote input of
   every candidate. *)
let[@inline] dup_local_finish sched ~src ~proc =
  if not (Schedule.has_dups sched) then neg_infinity
  else Schedule.copy_finish_on sched ~task:src ~proc

(* Fill the [inc_*] table for [task]: one row per incoming edge, sorted
   by (source finish, source id, edge id) — the greedy order in which
   §4.3 serialises incoming communications.  The table only depends on
   committed predecessor placements (immutable once made), so it is
   computed once per task and reused across all candidate processors. *)
let prepare_incoming t ~task =
  if t.inc_task <> task then begin
    let g = Schedule.graph t.sched in
    let deg = Graph.in_degree g task in
    if deg > Array.length t.inc_fin then begin
      let cap = max deg (max 8 (2 * Array.length t.inc_fin)) in
      t.inc_fin <- Array.make cap 0.;
      t.inc_src <- Array.make cap 0;
      t.inc_edge <- Array.make cap 0;
      t.inc_proc <- Array.make cap 0;
      t.inc_data <- Array.make cap 0.;
      t.sp_gen <- Array.make cap (-1);
      t.sp_dur <- Array.make cap 0.;
      t.sp_start <- Array.make cap 0.
    end;
    t.gen <- t.gen + 1;
    let first = Graph.pred_first g task in
    for i = 0 to deg - 1 do
      let e = Graph.pred_edge g (first + i) in
      let src = Graph.edge_src g e in
      set_rep_copy t i src;
      t.inc_src.(i) <- src;
      t.inc_edge.(i) <- e;
      t.inc_data.(i) <- Graph.edge_data g e
    done;
    let n = deg in
    (* insertion sort of the parallel rows by (fin, src, edge) *)
    for i = 1 to n - 1 do
      let fin = t.inc_fin.(i)
      and src = t.inc_src.(i)
      and edge = t.inc_edge.(i)
      and proc = t.inc_proc.(i)
      and data = t.inc_data.(i) in
      let pos = ref i in
      while
        !pos > 0
        &&
        let j = !pos - 1 in
        t.inc_fin.(j) > fin
        || (t.inc_fin.(j) = fin
           && (t.inc_src.(j) > src
              || (t.inc_src.(j) = src && t.inc_edge.(j) > edge)))
      do
        let j = !pos - 1 in
        t.inc_fin.(!pos) <- t.inc_fin.(j);
        t.inc_src.(!pos) <- t.inc_src.(j);
        t.inc_edge.(!pos) <- t.inc_edge.(j);
        t.inc_proc.(!pos) <- t.inc_proc.(j);
        t.inc_data.(!pos) <- t.inc_data.(j);
        decr pos
      done;
      t.inc_fin.(!pos) <- fin;
      t.inc_src.(!pos) <- src;
      t.inc_edge.(!pos) <- edge;
      t.inc_proc.(!pos) <- proc;
      t.inc_data.(!pos) <- data
    done;
    let mx = ref 0. in
    for i = 0 to n - 1 do
      if t.inc_fin.(i) > !mx then mx := t.inc_fin.(i)
    done;
    t.inc_len <- n;
    t.inc_max_fin <- !mx;
    t.inc_task <- task
  end

(* ------------------------------------------------------------------ *)
(* Test seam                                                           *)
(* ------------------------------------------------------------------ *)

type oracle = {
  price : floor:float -> t -> task:int -> proc:int -> unit;
  argmin :
    floor:float ->
    t ->
    tasks:int array ->
    procs:int array ->
    alive:bool array ->
    int;
}

let oracle = ref None

(* ------------------------------------------------------------------ *)
(* Optimized evaluation                                                *)
(* ------------------------------------------------------------------ *)

let grow_priced c =
  let n = c.p_n in
  let grow a fill =
    let a' = Array.make (2 * n) fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  c.p_edge <- grow c.p_edge 0;
  c.p_src <- grow c.p_src 0;
  c.p_dst <- grow c.p_dst 0;
  c.p_start <- grow c.p_start 0.

(* Append a hop to [c], growing its buffers when full.  Inlined, so
   that [start] is stored unboxed. *)
let[@inline] push_hop c ~edge ~src ~dst start =
  let n = c.p_n in
  if n = Array.length c.p_edge then grow_priced c;
  c.p_edge.(n) <- edge;
  c.p_src.(n) <- src;
  c.p_dst.(n) <- dst;
  c.p_start.(n) <- start;
  c.p_n <- n + 1

(* With [abort], pricing stops as soon as [ready +. exec] reaches the
   scan's cutoff ({!set_cutoff}): inputs come in §4.3 finish order, so
   [ready] only grows and the compute probe never returns a slot before
   it — the candidate cannot win.  Returns [false] when it stopped
   early, leaving [t.cur] unfinished. *)
let price_port ~floor ~abort t ~task ~proc =
  let c = t.cur in
  let exec = Schedule.exec_duration t.sched ~task ~proc in
  let ready = ref floor in
  let i = ref 0 and live = ref true in
  while !live && !i < t.inc_len do
    let fin = t.inc_fin.(!i) in
    let q = t.inc_proc.(!i) in
    let data = t.inc_data.(!i) in
    if q = proc || data = 0. then begin
      if fin > !ready then ready := fin
    end
    else begin
      let f = dup_local_finish t.sched ~src:t.inc_src.(!i) ~proc in
      if f > neg_infinity then begin
        if f > !ready then ready := f
      end
      else begin
        let e = t.inc_edge.(!i) in
        let route = route_for t ~src:q ~dst:proc in
        let data_ready = ref (if fin > floor then fin else floor) in
        for h = 0 to Array.length route - 1 do
          let hs = route.(h) in
          let duration = data *. hs.h_cost in
          let start =
            probe t ~tls:hs.h_tls ~ids:hs.h_ids ~after:!data_ready ~duration
          in
          Obs.Counters.(bump tentative_hops);
          push_hop c ~edge:e ~src:hs.h_src ~dst:hs.h_dst start;
          let finish = start +. duration in
          for j = 0 to Array.length hs.h_ids - 1 do
            arena_add t hs.h_ids.(j) start finish
          done;
          data_ready := finish
        done;
        if !data_ready > !ready then ready := !data_ready
      end
    end;
    incr i;
    if abort && !ready +. exec >= t.cutoff.(0) then live := false
  done;
  if !live then begin
    let est =
      probe t ~tls:t.comp_tls.(proc) ~ids:t.comp_ids.(proc) ~after:!ready
        ~duration:exec
    in
    c.p_times.(0) <- est;
    c.p_times.(1) <- est +. exec
  end;
  !live

(* BSP: the task's remote inputs travel in one fresh comm phase priced
   [g·h + L] from the h-relation [h] (total remote data), placed on the
   platform-wide phase busy set; local and zero-data inputs only
   constrain readiness.  The same arithmetic in the same order as
   [Engine_ref.evaluate_bsp] in the test oracle, so both stay
   bit-identical. *)
let price_bsp ~floor t ~task ~proc ~g:gp ~l:lp =
  let c = t.cur in
  let local_ready = ref floor in
  let remote_ready = ref floor in
  let h = ref 0. in
  let any_remote = ref false in
  for i = 0 to t.inc_len - 1 do
    let fin = t.inc_fin.(i) in
    let q = t.inc_proc.(i) in
    let data = t.inc_data.(i) in
    if q = proc || data = 0. then begin
      if fin > !local_ready then local_ready := fin
    end
    else begin
      any_remote := true;
      h := !h +. data;
      if fin > !remote_ready then remote_ready := fin
    end
  done;
  let duration = Schedule.exec_duration t.sched ~task ~proc in
  let ready =
    if not !any_remote then !local_ready
    else begin
      let d = (gp *. !h) +. lp in
      let ph =
        probe t ~tls:t.phase_tls ~ids:t.phase_ids ~after:!remote_ready
          ~duration:d
      in
      let f = ph +. d in
      for j = 0 to Array.length t.phase_ids - 1 do
        arena_add t t.phase_ids.(j) ph f
      done;
      for i = 0 to t.inc_len - 1 do
        let q = t.inc_proc.(i) in
        if q <> proc && t.inc_data.(i) <> 0. then begin
          Obs.Counters.(bump tentative_hops);
          push_hop c ~edge:t.inc_edge.(i) ~src:q ~dst:proc ph
        end
      done;
      c.p_phased <- true;
      c.p_times.(2) <- ph;
      c.p_times.(3) <- f;
      if !local_ready > f then !local_ready else f
    end
  in
  let est =
    probe t ~tls:t.comp_tls.(proc) ~ids:t.comp_ids.(proc) ~after:ready
      ~duration
  in
  c.p_times.(0) <- est;
  c.p_times.(1) <- est +. duration

(* Latency+overhead: a hop's event spans [2o + data·hop_cost + l]; only
   the endpoint overheads occupy ports, exactly the sub-intervals
   [Resource.commit_comm] will commit.  The send and receive windows
   are coupled, so the placement alternates between the two sides until
   both are free (strictly increasing candidate starts, hence
   terminating).  Mirrors [Engine_ref.evaluate_latency] in the test
   oracle. *)
let price_latency ~floor t ~task ~proc ~o ~l =
  let c = t.cur in
  let ready = ref floor in
  for i = 0 to t.inc_len - 1 do
    let fin = t.inc_fin.(i) in
    let q = t.inc_proc.(i) in
    let data = t.inc_data.(i) in
    if q = proc || data = 0. then begin
      if fin > !ready then ready := fin
    end
    else begin
      let e = t.inc_edge.(i) in
      let route = route_for t ~src:q ~dst:proc in
      let data_ready = ref (if fin > floor then fin else floor) in
      for hh = 0 to Array.length route - 1 do
        let hs = route.(hh) in
        let span = (2. *. o) +. (data *. hs.h_cost) +. l in
        let rec place after =
          let s =
            probe t ~tls:hs.h_send_tls ~ids:hs.h_send_ids ~after ~duration:o
          in
          let f = s +. span in
          let r0 = max (f -. o) s in
          let r =
            probe t ~tls:hs.h_recv_tls ~ids:hs.h_recv_ids ~after:r0 ~duration:o
          in
          if r <= r0 then (s, f, r0)
          else
            let a' = (r -. span) +. o in
            place (if a' > s then a' else f)
        in
        let s, f, r0 = place !data_ready in
        Obs.Counters.(bump tentative_hops);
        push_hop c ~edge:e ~src:hs.h_src ~dst:hs.h_dst s;
        let s1 = min (s +. o) f in
        for j = 0 to Array.length hs.h_send_ids - 1 do
          arena_add t hs.h_send_ids.(j) s s1
        done;
        for j = 0 to Array.length hs.h_recv_ids - 1 do
          arena_add t hs.h_recv_ids.(j) r0 f
        done;
        data_ready := f
      done;
      if !data_ready > !ready then ready := !data_ready
    end
  done;
  let duration = Schedule.exec_duration t.sched ~task ~proc in
  let est =
    probe t ~tls:t.comp_tls.(proc) ~ids:t.comp_ids.(proc) ~after:!ready
      ~duration
  in
  c.p_times.(0) <- est;
  c.p_times.(1) <- est +. duration

(* The one pricing core: evaluates [task] on [proc] into [t.cur].
   [abort] lets the port regime stop a candidate that cannot beat the
   incumbent in [t.best] ({!price_port}); returns [false] when it did. *)
let price_candidate ~floor ~abort t ~task ~proc =
  Obs.Counters.(bump evaluations);
  prepare_incoming t ~task;
  arena_reset t;
  let c = t.cur in
  c.p_n <- 0;
  c.p_proc <- proc;
  c.p_phased <- false;
  match t.regime with
  | Comm_model.Port -> price_port ~floor ~abort t ~task ~proc
  | Comm_model.Bsp { g; l } ->
      price_bsp ~floor t ~task ~proc ~g ~l;
      true
  | Comm_model.Latency_overhead { o; l } ->
      price_latency ~floor t ~task ~proc ~o ~l;
      true

let price ?(floor = 0.) t ~task ~proc =
  match !oracle with
  | Some o -> o.price ~floor t ~task ~proc
  | None ->
      let (_ : bool) = price_candidate ~floor ~abort:false t ~task ~proc in
      ()

let priced_est t = t.cur.p_times.(0)
let priced_eft t = t.cur.p_times.(1)

(* Under BSP a candidate's hops all travel in its phase: their shared
   window is the phase window. *)
let set_candidate t ~task ~proc ~start comms =
  let c = t.cur in
  c.p_n <- 0;
  List.iter
    (fun (h : Schedule.comm) ->
      push_hop c ~edge:h.edge ~src:h.src_proc ~dst:h.dst_proc h.start)
    comms;
  c.p_proc <- proc;
  c.p_times.(0) <- start;
  c.p_times.(1) <- start +. Schedule.exec_duration t.sched ~task ~proc;
  match (t.regime, comms) with
  | Comm_model.Bsp _, h :: _ ->
      c.p_phased <- true;
      c.p_times.(2) <- h.start;
      c.p_times.(3) <- h.finish
  | _ -> c.p_phased <- false

(* The latest finish over [q]'s send-only busy set; inlined, like
   [Timeline.last_finish], so that the float stays unboxed. *)
let[@inline] send_last_finish t q =
  let tls = t.send_tls.(q) in
  let lf = ref 0. in
  for j = 0 to Array.length tls - 1 do
    let f = Timeline.last_finish tls.(j) in
    if f > !lf then lf := f
  done;
  !lf

(* The most a route out of [q] costs per data item. *)
let fill_out_cost t q =
  let plat = Schedule.platform t.sched in
  let c = ref 0. in
  for r = 0 to t.p - 1 do
    if r <> q && Platform.link plat ~src:q ~dst:r > !c then
      c := Platform.link plat ~src:q ~dst:r
  done;
  t.out_cost.(q) <- !c

(* Computed on first use; inlined so that the cached read does not box. *)
let[@inline] out_cost t q =
  if t.out_cost.(q) < 0. then fill_out_cost t q;
  t.out_cost.(q)

(* The gate of stage 3, into [t.gate_at.(0)]: a ceiling on the latest
   arrival stage 3 can give any candidate, each input with data leaving
   at its send port's last finish — the probe never returns more than
   [max after lf] — and crossing the costliest route out of its source.
   Rows with an idle send port are left out: stage 1 already counts
   them.  It depends on no candidate, so it is computed once per
   generation; it may sit a rounding step below stage 3 on multi-hop
   routes, which can only skip a stage 3, never change a result. *)
let set_send_ceiling ~floor t =
  let reach = ref neg_infinity in
  for i = 0 to t.inc_len - 1 do
    let data = t.inc_data.(i) in
    if data <> 0. then begin
      let q = t.inc_proc.(i) in
      let fin = t.inc_fin.(i) in
      let lf = send_last_finish t q in
      if lf > (if fin > floor then fin else floor) then begin
        let arrival = lf +. (data *. out_cost t q) in
        if arrival > !reach then reach := arrival
      end
    end
  done;
  t.gate_at.(0) <- !reach;
  t.gate_gen <- t.gen

(* Stage 3 of {!bound}: the latest arrival of [task]'s remote inputs on
   [proc] when each message first waits for its source's committed send
   port — the first hop's send-only busy set, probed at [max fin floor]
   for [data *. h_cost] with the arena empty, later hops' costs added on
   top.  The send set is a subset of the hop's joint busy set and the
   slot search is monotone in [after] and in its blockers, so each
   arrival stays at or below the evaluator's.  A port idle after [after]
   is not probed: its slot is [after] itself, which stage 1 already
   counted.  The probe depends on the row, the generation and the first
   hop's duration only — not on [proc]'s side of the link — so it is
   cached under exactly that key: one probe per input per task on
   uniform links. *)
let[@inline] send_arrival ~floor t ~proc =
  let ready = ref neg_infinity in
  for i = 0 to t.inc_len - 1 do
    let q = t.inc_proc.(i) and data = t.inc_data.(i) in
    let fin = t.inc_fin.(i) in
    let after = if fin > floor then fin else floor in
    if q <> proc && data <> 0. && send_last_finish t q > after then
      (* stage 1 has just cached the route of every remote input *)
      match t.routes.((q * t.p) + proc) with
      | Some route
        when dup_local_finish t.sched ~src:t.inc_src.(i) ~proc = neg_infinity
        ->
          let d0 = data *. route.(0).h_cost in
          if not (t.sp_gen.(i) = t.gen && t.sp_dur.(i) = d0) then begin
            t.sp_start.(i) <-
              probe t ~tls:t.send_tls.(q) ~ids:t.send_ids.(q) ~after
                ~duration:d0;
            t.sp_gen.(i) <- t.gen;
            t.sp_dur.(i) <- d0
          end;
          let arrival = ref (t.sp_start.(i) +. d0) in
          for h = 1 to Array.length route - 1 do
            arrival := !arrival +. (data *. route.(h).h_cost)
          done;
          if !arrival > !ready then ready := !arrival
      | _ -> ()
  done;
  !ready

(* A lower bound on the EFT of [task] on [proc], from committed state
   alone, in three stages run in the order 1, 3, 2, each only while the
   ones before it stay below the scan's cutoff ({!set_cutoff}).  Under
   the port regime stage 1 mirrors [price_port]'s branches: a local or
   zero-data input is ready at its finish, a local duplicate copy at
   that copy's finish, and a remote input at [max fin floor] plus each
   route hop's [data *. h_cost], added hop by hop in the evaluator's
   order — a probe never returns a slot before its [after] and rounding
   is monotone, so each partial sum stays at or below the evaluator's.
   Stage 3 ({!send_arrival}) prices each remote input's wait for its
   committed send port.  Stage 2 probes
   [proc]'s committed compute timeline at [ready], arena empty: the slot
   search is exact, hence monotone in [after], and the tentative
   intervals it leaves out can only delay the real slot.  Inlined into
   the scan, so that no float crosses a call.  The BSP and
   latency+overhead regimes keep the plain bound, latest predecessor
   finish (or [floor]) plus execution. *)
let[@inline] bound ~floor ~gate t ~task ~proc =
  let cutoff = t.cutoff.(0) in
  prepare_incoming t ~task;
  let exec = Schedule.exec_duration t.sched ~task ~proc in
  match t.regime with
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ ->
      (if t.inc_max_fin > floor then t.inc_max_fin else floor) +. exec
  | Comm_model.Port ->
      let ready = ref floor in
      for i = 0 to t.inc_len - 1 do
        let fin = t.inc_fin.(i) in
        let q = t.inc_proc.(i) in
        let data = t.inc_data.(i) in
        if q = proc || data = 0. then begin
          if fin > !ready then ready := fin
        end
        else begin
          let f = dup_local_finish t.sched ~src:t.inc_src.(i) ~proc in
          if f > neg_infinity then begin
            if f > !ready then ready := f
          end
          else begin
            let route = route_for t ~src:q ~dst:proc in
            let arrival = ref (if fin > floor then fin else floor) in
            for h = 0 to Array.length route - 1 do
              arrival := !arrival +. (data *. route.(h).h_cost)
            done;
            if !arrival > !ready then ready := !arrival
          end
        end
      done;
      if !ready +. exec >= cutoff then !ready +. exec
      else begin
        arena_reset t;
        (* Stage 3 before stage 2: its probe is cached per row, so it
           usually costs nothing, and a candidate it prunes saves the
           compute probe.  Each stage is a lower bound, so which one
           reaches [cutoff] first does not change what is pruned.  With
           [gate], stage 3 runs only when its ceiling reaches
           [cutoff]. *)
        let sent =
          if
            gate
            && begin
                 if t.gate_gen <> t.gen then set_send_ceiling ~floor t;
                 t.gate_at.(0) +. exec < cutoff
               end
          then neg_infinity
          else send_arrival ~floor t ~proc +. exec
        in
        if sent >= cutoff then sent
        else
          let lb =
            probe t ~tls:t.comp_tls.(proc) ~ids:t.comp_ids.(proc)
              ~after:!ready ~duration:exec
            +. exec
          in
          if sent > lb then sent else lb
      end

(* The all-stage bound, ungated. *)
let lower_bound ?(floor = 0.) t ~task ~proc =
  t.gen <- t.gen + 1;
  t.cutoff.(0) <- infinity;
  bound ~floor ~gate:false t ~task ~proc

(* The cutoff for the candidate at index [i] against the incumbent: its
   EFT when the incumbent comes first and keeps a tie, the next float
   above it when the candidate comes first and an equal EFT makes it the
   winner — so that [x >= t.cutoff.(0)] reads "finishing at [x] loses"
   either way, with no float crossing a call. *)
let set_cutoff t i =
  let eft = t.best.p_times.(1) in
  t.cutoff.(0) <-
    (if i < t.best_idx then Float.next_after eft infinity else eft)

let keep t =
  let b = t.best in
  t.best <- t.cur;
  t.cur <- b

(* Make the candidate just priced into [t.cur], at index [i], the
   incumbent unless it reaches the cutoff. *)
let offer t i =
  if t.best_idx < 0 || not (t.cur.p_times.(1) >= t.cutoff.(0)) then begin
    keep t;
    t.best_idx <- i
  end

let rec is_sorted_strict = function
  | a :: (b :: _ as rest) -> a < b && is_sorted_strict rest
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Candidate scans                                                     *)
(* ------------------------------------------------------------------ *)

(* Offer [task] on [proc], at index [i], to the scan in flight: once
   there is an incumbent, a candidate whose {!bound} reaches the cutoff
   is pruned and one whose pricing reaches it is aborted — both exact,
   since the true EFT is at least either figure and ties go to the lower
   index ({!set_cutoff}).  Every other candidate is priced into
   scratch. *)
let consider ~floor t ~task ~proc i =
  if t.best_idx >= 0 then set_cutoff t i;
  if
    t.best_idx >= 0
    && bound ~floor ~gate:true t ~task ~proc >= t.cutoff.(0)
  then Obs.Counters.(bump pruned_evaluations)
  else if price_candidate ~floor ~abort:(t.best_idx >= 0) t ~task ~proc then
    offer t i
  else Obs.Counters.(bump aborted_evaluations)

(* A new scan: committed state or [floor] may have changed since the
   last one, so the send-probe cache starts afresh. *)
let start_scan t =
  t.best_idx <- -1;
  t.gen <- t.gen + 1

(* The processor holding the input of [task] estimated to arrive last —
   its source's finish plus its data over the costliest route out of
   that processor, ties to the first row in §4.3 order — or -1 when
   [task] has no inputs.  Holding that input locally, it is often the
   winner. *)
let seed_proc t ~task =
  prepare_incoming t ~task;
  let seed = ref (-1) and latest = ref neg_infinity in
  for i = 0 to t.inc_len - 1 do
    let q = t.inc_proc.(i) in
    let arrival = t.inc_fin.(i) +. (t.inc_data.(i) *. out_cost t q) in
    if arrival > !latest then begin
      latest := arrival;
      seed := q
    end
  done;
  !seed

(* The index of [proc] in the strictly sorted [procs], or -1. *)
let index_of (procs : int array) proc =
  let lo = ref 0 and hi = ref (Array.length procs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if procs.(mid) < proc then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length procs && procs.(!lo) = proc then !lo else -1

(* Earliest-best scan of a non-empty, strictly sorted candidate array:
   the seed first ({!seed_proc}), when it is a candidate, so that the
   pruning has a strong incumbent early, then the rest in index order.
   Ties still go to the lowest index ({!offer}); the winner is left in
   [t.best]. *)
let scan_candidates ~floor t ~task procs =
  start_scan t;
  let s = index_of procs (seed_proc t ~task) in
  if s >= 0 then consider ~floor t ~task ~proc:procs.(s) s;
  for i = 0 to Array.length procs - 1 do
    if i <> s then consider ~floor t ~task ~proc:procs.(i) i
  done

(* A candidate list as a strictly sorted array.  Candidates are almost
   always handed over sorted (processor ranges, filtered survivor
   lists); only re-sort when not. *)
let candidate_array = function
  | [] -> invalid_arg "Engine.schedule_best_among: no candidates"
  | procs ->
      Array.of_list
        (if is_sorted_strict procs then procs else List.sort_uniq compare procs)

(* Earliest-best scan over the alive rows of a pending (task, proc)
   table — ILHA's reschedule step — with the same pruning and early
   abort as [scan_candidates]: rows price different tasks, but each
   bound is a bound on its own row's EFT, and ties go to the lowest row.
   The winning row is left in [t.best_idx], -1 when none is alive. *)
let scan_pending ~floor t ~tasks ~procs ~alive =
  start_scan t;
  for i = 0 to Array.length tasks - 1 do
    if alive.(i) then consider ~floor t ~task:tasks.(i) ~proc:procs.(i) i
  done

let check_pending ~tasks ~procs ~alive =
  let n = Array.length tasks in
  if Array.length procs <> n || Array.length alive <> n then
    invalid_arg "Engine.schedule_pending: array length mismatch"

let log_push t ~task ~proc ~comms_before ~phases_before =
  if t.log_len = Array.length t.log_task then begin
    let cap = Array.length t.log_task in
    let cap' = if cap = 0 then 16 else 2 * cap in
    let lt = Array.make cap' 0
    and lc = Array.make cap' 0
    and lp = Array.make cap' 0
    and lq = Array.make cap' 0 in
    Array.blit t.log_task 0 lt 0 t.log_len;
    Array.blit t.log_comms 0 lc 0 t.log_len;
    Array.blit t.log_phases 0 lp 0 t.log_len;
    Array.blit t.log_proc 0 lq 0 t.log_len;
    t.log_task <- lt;
    t.log_comms <- lc;
    t.log_phases <- lp;
    t.log_proc <- lq
  end;
  t.log_task.(t.log_len) <- task;
  t.log_comms.(t.log_len) <- comms_before;
  t.log_phases.(t.log_len) <- phases_before;
  t.log_proc.(t.log_len) <- proc;
  t.log_len <- t.log_len + 1

(* Commit [c]'s hops.  Within one candidate each edge contributes one
   route-following chain, its hops consecutive, so a hop heads a chain
   exactly when the hop before it carries another edge — stated
   explicitly because with duplication a new chain may begin on the
   processor where a previous chain of the same edge ended.  The flag
   is passed as a literal so that no option is built per hop. *)
let commit_hops t c =
  for i = 0 to c.p_n - 1 do
    let edge = c.p_edge.(i) in
    let src_proc = c.p_src.(i) and dst_proc = c.p_dst.(i) in
    let (_ : float) =
      if i = 0 || c.p_edge.(i - 1) <> edge then
        Schedule.add_comm ~head:true t.sched ~edge ~src_proc ~dst_proc
          ~start:c.p_start.(i)
      else
        Schedule.add_comm ~head:false t.sched ~edge ~src_proc ~dst_proc
          ~start:c.p_start.(i)
    in
    ()
  done

(* The one commit: place [task] as priced in [c], logging the entry. *)
let commit_priced t ~task c =
  Obs.Counters.(bump commits);
  log_push t ~task ~proc:(-1)
    ~comms_before:(Schedule.n_comm_events t.sched)
    ~phases_before:(Schedule.n_phases t.sched);
  if c.p_phased then begin
    (* BSP: the phase window was chosen during evaluation; every hop
       event spans it. *)
    Schedule.add_phase t.sched ~start:c.p_times.(2) ~finish:c.p_times.(3);
    for i = 0 to c.p_n - 1 do
      let (_ : float) =
        Schedule.add_comm_in_window t.sched ~edge:c.p_edge.(i)
          ~src_proc:c.p_src.(i) ~dst_proc:c.p_dst.(i) ~start:c.p_start.(i)
          ~finish:c.p_times.(3)
      in
      ()
    done
  end
  else commit_hops t c;
  Schedule.place_task t.sched ~task ~proc:c.p_proc ~start:c.p_times.(0)

(* Drop the cached incoming table: it may list the task just copied as
   a predecessor, whose feeding copy set changed. *)
let invalidate_incoming t = t.inc_task <- -1

(* The one copy commit: place a copy of [task] as priced in [c]. *)
let commit_copy_priced t ~task c =
  if not (Schedule.is_placed t.sched task) then
    invalid_arg "Engine: a copy of a task with no primary copy yet";
  if c.p_phased then invalid_arg "Engine: duplication is port-regime only";
  Obs.Counters.(bump commits);
  log_push t ~task ~proc:c.p_proc
    ~comms_before:(Schedule.n_comm_events t.sched)
    ~phases_before:(Schedule.n_phases t.sched);
  commit_hops t c;
  Schedule.place_copy t.sched ~task ~proc:c.p_proc ~start:c.p_times.(0);
  invalidate_incoming t

let commit_kept t ~task = commit_priced t ~task t.best
let commit_kept_copy t ~task = commit_copy_priced t ~task t.best

let n_commits t = t.log_len
let commit_task_at t i = t.log_task.(i)
let commit_proc_at t i = t.log_proc.(i)

let rewind t ~to_ =
  if to_ < 0 || to_ > t.log_len then invalid_arg "Engine.rewind: bad index";
  if to_ < t.log_len then begin
    Obs.Counters.(bump rollbacks);
    while t.log_len > to_ do
      let i = t.log_len - 1 in
      if t.log_proc.(i) >= 0 then
        Schedule.unplace_copy t.sched ~task:t.log_task.(i)
          ~proc:t.log_proc.(i)
      else Schedule.unplace_task t.sched t.log_task.(i);
      Schedule.truncate_comms t.sched ~down_to:t.log_comms.(i);
      Schedule.truncate_phases t.sched ~down_to:t.log_phases.(i);
      t.log_len <- i
    done;
    (* The incoming table depends on predecessor placements, which the
       rewind may just have retracted. *)
    invalidate_incoming t
  end

let schedule_on ?floor t ~task ~proc =
  price ?floor t ~task ~proc;
  commit_priced t ~task t.cur

let schedule_copy_on ?floor t ~task ~proc =
  price ?floor t ~task ~proc;
  commit_copy_priced t ~task t.cur

(* Commit [task] on the best of the strictly sorted [procs]. *)
let place_best ~floor t ~task procs =
  (match !oracle with
  | Some o ->
      let n = Array.length procs in
      let (_ : int) =
        o.argmin ~floor t ~tasks:(Array.make n task) ~procs
          ~alive:(Array.make n true)
      in
      ()
  | None -> scan_candidates ~floor t ~task procs);
  commit_priced t ~task t.best;
  t.best.p_proc

let schedule_best ?(floor = 0.) t ~task = place_best ~floor t ~task t.all_procs

let schedule_best_among ?(floor = 0.) t ~task procs =
  place_best ~floor t ~task (candidate_array procs)

let schedule_pending ?(floor = 0.) t ~tasks ~procs ~alive =
  check_pending ~tasks ~procs ~alive;
  let i =
    match !oracle with
    | Some o -> o.argmin ~floor t ~tasks ~procs ~alive
    | None ->
        scan_pending ~floor t ~tasks ~procs ~alive;
        t.best_idx
  in
  if i >= 0 then commit_priced t ~task:tasks.(i) t.best;
  i
