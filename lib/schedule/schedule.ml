open Prelude
module Graph = Taskgraph.Graph

module Comm_model = Commmodel.Comm_model

type placement = { task : int; proc : int; start : float; finish : float }

type comm = {
  edge : int;
  src_proc : int;
  dst_proc : int;
  start : float;
  finish : float;
}

type t = {
  graph : Graph.t;
  platform : Platform.t;
  model : Comm_model.t;
  exec_time : (int -> int -> float) option;
  resource : Resource.t;
  procs : int array; (* -1 = unplaced *)
  starts : float array;
  finishes : float array;
  (* The comm store: one event per index [i < n_comms], in commit
     order, as parallel unboxed arrays — its edge, endpoints, window,
     whether it heads a provenance chain, and the index of the edge's
     previous event (-1 for its first).  [edge_last] holds each edge's
     newest event (-1: none), so the [c_prev] links walk an edge's
     events newest first.  Committing an event writes ints and floats
     into these arrays and builds nothing. *)
  mutable c_edge : int array;
  mutable c_src : int array;
  mutable c_dst : int array;
  mutable c_start : float array;
  mutable c_finish : float array;
  mutable c_head : bool array;
  mutable c_prev : int array;
  mutable n_comms : int;
  edge_last : int array;
  phases : (float * float) Vec.t; (* BSP comm phases, commit order *)
  mutable n_placed : int;
  dups : placement list array; (* duplicate copies beyond the primary, newest first *)
  mutable n_dups : int;
}

let create ?exec_time ~graph ~platform ~model () =
  let n = Graph.n_tasks graph in
  {
    graph;
    platform;
    model;
    exec_time;
    resource = Resource.create ~model ~p:(Platform.p platform);
    procs = Array.make n (-1);
    starts = Array.make n 0.;
    finishes = Array.make n 0.;
    c_edge = [||];
    c_src = [||];
    c_dst = [||];
    c_start = [||];
    c_finish = [||];
    c_head = [||];
    c_prev = [||];
    n_comms = 0;
    edge_last = Array.make (max (Graph.n_edges graph) 1) (-1);
    phases = Vec.create ();
    n_placed = 0;
    dups = Array.make n [];
    n_dups = 0;
  }

let custom_duration f ~task ~proc =
  let d = f task proc in
  if d < 0. || Float.is_nan d then
    invalid_arg "Schedule.exec_duration: negative execution time";
  d

(* Inlined: the engine asks it for every candidate it prices or bounds,
   and a float returned from a call is boxed. *)
let[@inline] exec_duration t ~task ~proc =
  match t.exec_time with
  | Some f -> custom_duration f ~task ~proc
  | None -> Graph.weight t.graph task *. Platform.cycle_time t.platform proc

let graph t = t.graph
let platform t = t.platform
let model t = t.model
let resource t = t.resource

let place_task t ~task ~proc ~start =
  if task < 0 || task >= Graph.n_tasks t.graph then
    invalid_arg "Schedule.place_task: bad task";
  if proc < 0 || proc >= Platform.p t.platform then
    invalid_arg "Schedule.place_task: bad processor";
  if t.procs.(task) >= 0 then invalid_arg "Schedule.place_task: already placed";
  if start < 0. then invalid_arg "Schedule.place_task: negative start";
  let finish = start +. exec_duration t ~task ~proc in
  Resource.commit_task t.resource ~proc ~start ~finish;
  t.procs.(task) <- proc;
  t.starts.(task) <- start;
  t.finishes.(task) <- finish;
  t.n_placed <- t.n_placed + 1

let grow_comms t =
  let cap = Array.length t.c_edge in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let n = t.n_comms in
  let ints a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 n;
    a'
  and floats a =
    let a' = Array.create_float cap' in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.c_edge <- ints t.c_edge;
  t.c_src <- ints t.c_src;
  t.c_dst <- ints t.c_dst;
  t.c_start <- floats t.c_start;
  t.c_finish <- floats t.c_finish;
  t.c_prev <- ints t.c_prev;
  let h = Array.make cap' false in
  Array.blit t.c_head 0 h 0 n;
  t.c_head <- h

(* Append an event to the store, linking it behind its edge's newest. *)
let push_comm t ~edge ~src_proc ~dst_proc ~start ~finish ~head =
  if t.n_comms = Array.length t.c_edge then grow_comms t;
  let i = t.n_comms in
  t.c_edge.(i) <- edge;
  t.c_src.(i) <- src_proc;
  t.c_dst.(i) <- dst_proc;
  t.c_start.(i) <- start;
  t.c_finish.(i) <- finish;
  t.c_head.(i) <- head;
  t.c_prev.(i) <- t.edge_last.(edge);
  t.edge_last.(edge) <- i;
  t.n_comms <- i + 1

let add_comm_in_window ?head t ~edge ~src_proc ~dst_proc ~start ~finish =
  if src_proc = dst_proc then invalid_arg "Schedule.add_comm: src = dst";
  (* A hop starts a new provenance chain unless it extends the edge's
     previous hop; explicit [head] overrides the inference (duplication
     can legitimately start a chain where another one ended). *)
  let head =
    match head with
    | Some h -> h
    | None ->
        let i = t.edge_last.(edge) in
        i < 0 || t.c_dst.(i) <> src_proc
  in
  Resource.commit_comm t.resource ~src:src_proc ~dst:dst_proc ~start ~finish;
  push_comm t ~edge ~src_proc ~dst_proc ~start ~finish ~head;
  finish

let add_comm ?head t ~edge ~src_proc ~dst_proc ~start =
  let data = Graph.edge_data t.graph edge in
  let hop_cost = Platform.hop_cost t.platform ~src:src_proc ~dst:dst_proc in
  let finish = start +. Comm_model.hop_span t.model ~data ~hop_cost in
  add_comm_in_window ?head t ~edge ~src_proc ~dst_proc ~start ~finish

let add_phase t ~start ~finish =
  if finish < start then invalid_arg "Schedule.add_phase: negative duration";
  Resource.commit_phase t.resource ~start ~finish;
  Vec.push t.phases (start, finish)

let is_placed t task = t.procs.(task) >= 0

let placement t task =
  if is_placed t task then
    Some { task; proc = t.procs.(task); start = t.starts.(task); finish = t.finishes.(task) }
  else None

let placement_exn t task =
  match placement t task with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Schedule: task %d not placed" task)

let check_placed t task =
  if task < 0 || task >= Graph.n_tasks t.graph || t.procs.(task) < 0 then
    invalid_arg (Printf.sprintf "Schedule: task %d not placed" task)

(* Inlined, so that a caller's float read stays unboxed. *)
let[@inline] proc_of_exn t task =
  check_placed t task;
  t.procs.(task)

let[@inline] start_of_exn t task =
  check_placed t task;
  t.starts.(task)

let[@inline] finish_of_exn t task =
  check_placed t task;
  t.finishes.(task)

(* Duplication: a task may run as several copies on distinct processors.
   The arrays above keep holding one distinguished {e primary} copy so that
   every single-copy consumer (and the bit-pinned goldens) sees exactly the
   historical representation; extra copies live in [dups].  Duplication is a
   port-regime notion here — BSP/latency phase accounting has no provenance
   story for replicated producers. *)

let place_copy t ~task ~proc ~start =
  if t.procs.(task) < 0 then place_task t ~task ~proc ~start
  else begin
    if t.model.Comm_model.regime <> Comm_model.Port then
      invalid_arg "Schedule.place_copy: duplication requires a port-regime model";
    if proc < 0 || proc >= Platform.p t.platform then
      invalid_arg "Schedule.place_copy: bad processor";
    if start < 0. then invalid_arg "Schedule.place_copy: negative start";
    if
      t.procs.(task) = proc
      || List.exists (fun (c : placement) -> c.proc = proc) t.dups.(task)
    then invalid_arg "Schedule.place_copy: copy already on this processor";
    let finish = start +. exec_duration t ~task ~proc in
    Resource.commit_task t.resource ~proc ~start ~finish;
    t.dups.(task) <- { task; proc; start; finish } :: t.dups.(task);
    t.n_dups <- t.n_dups + 1
  end

let has_dups t = t.n_dups > 0
let n_dup_copies t = t.n_dups

(* Extra copies of [task] in commit order (oldest first). *)
let dup_copies t task = List.rev t.dups.(task)

let copies t task =
  match placement t task with
  | None -> []
  | Some pl -> pl :: dup_copies t task

let copy_finish_on t ~task ~proc =
  if t.procs.(task) = proc then t.finishes.(task)
  else
    let rec find = function
      | [] -> neg_infinity
      | (c : placement) :: rest -> if c.proc = proc then c.finish else find rest
    in
    find t.dups.(task)

let copy_on t ~task ~proc =
  if t.procs.(task) = proc then placement t task
  else List.find_opt (fun (c : placement) -> c.proc = proc) t.dups.(task)

let earliest_finish t task =
  check_placed t task;
  List.fold_left
    (fun acc (c : placement) -> if c.finish < acc then c.finish else acc)
    t.finishes.(task) t.dups.(task)

let unplace_copy t ~task ~proc =
  check_placed t task;
  if t.procs.(task) = proc then begin
    Resource.retract_task t.resource ~proc ~start:t.starts.(task)
      ~finish:t.finishes.(task);
    match t.dups.(task) with
    | [] ->
        t.procs.(task) <- -1;
        t.n_placed <- t.n_placed - 1
    | l ->
        (* Promote the surviving copy with the earliest finish (ties to the
           lowest processor) so [placement] stays meaningful. *)
        let best =
          List.fold_left
            (fun (b : placement) (c : placement) ->
              if c.finish < b.finish || (c.finish = b.finish && c.proc < b.proc)
              then c
              else b)
            (List.hd l) (List.tl l)
        in
        t.procs.(task) <- best.proc;
        t.starts.(task) <- best.start;
        t.finishes.(task) <- best.finish;
        t.dups.(task) <- List.filter (fun (c : placement) -> c != best) l;
        t.n_dups <- t.n_dups - 1
  end
  else
    match
      List.find_opt (fun (c : placement) -> c.proc = proc) t.dups.(task)
    with
    | None ->
        invalid_arg
          (Printf.sprintf "Schedule.unplace_copy: task %d has no copy on %d"
             task proc)
    | Some c ->
        Resource.retract_task t.resource ~proc ~start:c.start ~finish:c.finish;
        t.dups.(task) <-
          List.filter (fun (d : placement) -> d != c) t.dups.(task);
        t.n_dups <- t.n_dups - 1

let n_placed t = t.n_placed
let all_placed t = t.n_placed = Graph.n_tasks t.graph
let n_comm_events t = t.n_comms

(* Index reads of the store, inlined so that a float read stays
   unboxed in the caller. *)
let[@inline] check_comm t i =
  if i < 0 || i >= t.n_comms then invalid_arg "Schedule: no such comm event"

let[@inline] comm_edge t i =
  check_comm t i;
  Array.unsafe_get t.c_edge i

let[@inline] comm_src t i =
  check_comm t i;
  Array.unsafe_get t.c_src i

let[@inline] comm_dst t i =
  check_comm t i;
  Array.unsafe_get t.c_dst i

let[@inline] comm_start t i =
  check_comm t i;
  Array.unsafe_get t.c_start i

let[@inline] comm_finish t i =
  check_comm t i;
  Array.unsafe_get t.c_finish i

let[@inline] comm_head_at t i =
  check_comm t i;
  Array.unsafe_get t.c_head i

let comm_at t i =
  check_comm t i;
  {
    edge = t.c_edge.(i);
    src_proc = t.c_src.(i);
    dst_proc = t.c_dst.(i);
    start = t.c_start.(i);
    finish = t.c_finish.(i);
  }

let comms t = List.init t.n_comms (comm_at t)

let comms_of_edge t edge =
  let rec walk i acc = if i < 0 then acc else walk t.c_prev.(i) (comm_at t i :: acc) in
  walk t.edge_last.(edge) []

let iter_comms t ~f =
  for i = 0 to t.n_comms - 1 do
    f (comm_at t i)
  done

let phase_at t i = Vec.get t.phases i
let iter_phases t ~f = Vec.iter (fun (s, fin) -> f s fin) t.phases

let total_comm_time t =
  let acc = ref 0. in
  for i = 0 to t.n_comms - 1 do
    acc := !acc +. (t.c_finish.(i) -. t.c_start.(i))
  done;
  !acc

let phases t = Vec.to_list t.phases
let n_phases t = Vec.length t.phases

let total_phase_time t =
  Vec.fold (fun acc (s, f) -> acc +. (f -. s)) 0. t.phases

let makespan t =
  if not (all_placed t) then invalid_arg "Schedule.makespan: unplaced tasks";
  if t.n_dups = 0 then Array.fold_left max 0. t.finishes
  else begin
    (* A duplicated task completes when its earliest copy does. *)
    let m = ref 0. in
    for v = 0 to Array.length t.finishes - 1 do
      let f = earliest_finish t v in
      if f > !m then m := f
    done;
    !m
  end

let edge_available_at t ~edge =
  let i = t.edge_last.(edge) in
  if i < 0 then finish_of_exn t (Graph.edge_src t.graph edge)
  else t.c_finish.(i)

let unplace_task t task =
  if task < 0 || task >= Graph.n_tasks t.graph then
    invalid_arg "Schedule.unplace_task: bad task";
  if t.procs.(task) < 0 then invalid_arg "Schedule.unplace_task: not placed";
  if t.dups.(task) <> [] then
    invalid_arg
      "Schedule.unplace_task: task has duplicate copies (unplace_copy them \
       first)";
  Resource.retract_task t.resource ~proc:t.procs.(task) ~start:t.starts.(task)
    ~finish:t.finishes.(task);
  t.procs.(task) <- -1;
  t.n_placed <- t.n_placed - 1

let truncate_comms t ~down_to =
  if down_to < 0 || down_to > t.n_comms then
    invalid_arg "Schedule.truncate_comms: bad length";
  (* Drop the most recent comm: it is necessarily its edge's newest. *)
  while t.n_comms > down_to do
    let i = t.n_comms - 1 in
    Resource.retract_comm t.resource ~src:t.c_src.(i) ~dst:t.c_dst.(i)
      ~start:t.c_start.(i) ~finish:t.c_finish.(i);
    t.edge_last.(t.c_edge.(i)) <- t.c_prev.(i);
    t.n_comms <- i
  done

let truncate_phases t ~down_to =
  if down_to < 0 || down_to > Vec.length t.phases then
    invalid_arg "Schedule.truncate_phases: bad length";
  while Vec.length t.phases > down_to do
    let start, finish = Vec.pop t.phases in
    Resource.retract_phase t.resource ~start ~finish
  done

(* [keep] is asked newest first, and the dropped events are retracted
   in that order; the kept ones are then compacted in place and their
   edge links rebuilt. *)
let filter_commsi t ~keep =
  let n = t.n_comms in
  let kept = Array.make n false in
  for i = n - 1 downto 0 do
    if keep i (comm_at t i) then kept.(i) <- true
    else
      Resource.retract_comm t.resource ~src:t.c_src.(i) ~dst:t.c_dst.(i)
        ~start:t.c_start.(i) ~finish:t.c_finish.(i)
  done;
  Array.fill t.edge_last 0 (Array.length t.edge_last) (-1);
  t.n_comms <- 0;
  for i = 0 to n - 1 do
    if kept.(i) then
      push_comm t ~edge:t.c_edge.(i) ~src_proc:t.c_src.(i)
        ~dst_proc:t.c_dst.(i) ~start:t.c_start.(i) ~finish:t.c_finish.(i)
        ~head:t.c_head.(i)
  done

let filter_comms t ~keep = filter_commsi t ~keep:(fun _ c -> keep c)

let copy t =
  Obs.Counters.(bump copies);
  {
    t with
    resource = Resource.copy t.resource;
    procs = Array.copy t.procs;
    starts = Array.copy t.starts;
    finishes = Array.copy t.finishes;
    c_edge = Array.copy t.c_edge;
    c_src = Array.copy t.c_src;
    c_dst = Array.copy t.c_dst;
    c_start = Array.copy t.c_start;
    c_finish = Array.copy t.c_finish;
    c_head = Array.copy t.c_head;
    c_prev = Array.copy t.c_prev;
    edge_last = Array.copy t.edge_last;
    phases = Vec.copy t.phases;
    dups = Array.copy t.dups;
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule of %s on %s (%s): %d/%d tasks placed, %d comms@]"
    (Graph.name t.graph) (Platform.name t.platform) (Comm_model.name t.model)
    t.n_placed (Graph.n_tasks t.graph) t.n_comms
