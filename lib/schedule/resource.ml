open Prelude
module Comm_model = Commmodel.Comm_model

type proc_state = {
  compute : Timeline.t;
  send : Timeline.t;
  recv : Timeline.t;
      (* Physically equal to [send] under the uni-directional discipline. *)
  compute_id : int;
  send_id : int;
  recv_id : int;
      (* Ids mirror the physical sharing: [recv_id = send_id] iff
         [recv == send]. *)
}

type t = {
  model : Comm_model.t;
  procs : proc_state array;
  (* The platform-wide barrier timeline of BSP comm phases, with its
     stable id; [None] outside the BSP regime. *)
  barrier : (Timeline.t * int) option;
  (* Undirected-link timelines keyed by (min, max) processor pair; lazily
     created, only populated under link-contention models.  Each carries
     its stable id, handed out from [next_id]. *)
  links : (int * int, Timeline.t * int) Hashtbl.t;
  mutable next_id : int;
}

let create ~model ~p =
  let make_proc i =
    let compute = Timeline.create () in
    let send = Timeline.create () in
    let recv, recv_id =
      match model.Comm_model.ports with
      | Comm_model.One_port_unidirectional -> (send, (3 * i) + 1)
      | Comm_model.Unlimited | Comm_model.One_port_bidirectional ->
          (Timeline.create (), (3 * i) + 2)
    in
    {
      compute;
      send;
      recv;
      compute_id = 3 * i;
      send_id = (3 * i) + 1;
      recv_id;
    }
  in
  let barrier, next_id =
    match model.Comm_model.regime with
    | Comm_model.Bsp _ -> (Some (Timeline.create (), 3 * p), (3 * p) + 1)
    | Comm_model.Port | Comm_model.Latency_overhead _ -> (None, 3 * p)
  in
  {
    model;
    procs = Array.init p make_proc;
    barrier;
    links = Hashtbl.create 16;
    next_id;
  }

let model t = t.model
let p t = Array.length t.procs
let compute t i = t.procs.(i).compute
let compute_id t i = t.procs.(i).compute_id
let id_bound t = t.next_id

let with_compute_if_no_overlap t i rest =
  if t.model.Comm_model.overlap then rest else t.procs.(i).compute :: rest

let send_busy t i =
  match t.model.Comm_model.ports with
  | Comm_model.Unlimited -> with_compute_if_no_overlap t i []
  | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional ->
      with_compute_if_no_overlap t i [ t.procs.(i).send ]

let recv_busy t i =
  match t.model.Comm_model.ports with
  | Comm_model.Unlimited -> with_compute_if_no_overlap t i []
  | Comm_model.One_port_bidirectional -> with_compute_if_no_overlap t i [ t.procs.(i).recv ]
  | Comm_model.One_port_unidirectional ->
      (* recv is physically the send port *)
      with_compute_if_no_overlap t i [ t.procs.(i).recv ]

let send_busy_ids t i =
  let with_compute_id rest =
    if t.model.Comm_model.overlap then rest
    else (t.procs.(i).compute, t.procs.(i).compute_id) :: rest
  in
  match t.model.Comm_model.ports with
  | Comm_model.Unlimited -> with_compute_id []
  | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional ->
      with_compute_id [ (t.procs.(i).send, t.procs.(i).send_id) ]

let recv_busy_ids t i =
  let with_compute_id rest =
    if t.model.Comm_model.overlap then rest
    else (t.procs.(i).compute, t.procs.(i).compute_id) :: rest
  in
  match t.model.Comm_model.ports with
  | Comm_model.Unlimited -> with_compute_id []
  | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional ->
      with_compute_id [ (t.procs.(i).recv, t.procs.(i).recv_id) ]

(* A BSP comm phase excludes computation platform-wide and phases never
   overlap each other: the joint busy set is the barrier timeline plus
   every processor's compute timeline. *)
let phase_busy t =
  match t.barrier with
  | None -> invalid_arg "Resource.phase_busy: not a BSP resource set"
  | Some (tl, _) ->
      tl :: Array.fold_right (fun ps acc -> ps.compute :: acc) t.procs []

let phase_busy_ids t =
  match t.barrier with
  | None -> invalid_arg "Resource.phase_busy_ids: not a BSP resource set"
  | Some (tl, id) ->
      (tl, id)
      :: Array.fold_right
           (fun ps acc -> (ps.compute, ps.compute_id) :: acc)
           t.procs []

let commit_phase t ~start ~finish =
  List.iter (fun tl -> Timeline.add tl ~start ~finish) (phase_busy t)

let retract_phase t ~start ~finish =
  List.iter (fun tl -> Timeline.remove tl ~start ~finish) (phase_busy t)

let link_with_id t ~src ~dst =
  let key = (min src dst, max src dst) in
  match Hashtbl.find_opt t.links key with
  | Some entry -> entry
  | None ->
      let tl = Timeline.create () in
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.add t.links key (tl, id);
      (tl, id)

let link t ~src ~dst = fst (link_with_id t ~src ~dst)

let comm_busy t ~src ~dst =
  let base = send_busy t src @ recv_busy t dst in
  if t.model.Comm_model.link_contention then link t ~src ~dst :: base else base

let comm_busy_ids t ~src ~dst =
  let with_compute_id i rest =
    if t.model.Comm_model.overlap then rest
    else (t.procs.(i).compute, t.procs.(i).compute_id) :: rest
  in
  let side busy i id =
    match t.model.Comm_model.ports with
    | Comm_model.Unlimited -> with_compute_id i []
    | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional ->
        with_compute_id i [ (busy, id) ]
  in
  let base =
    side t.procs.(src).send src t.procs.(src).send_id
    @ side t.procs.(dst).recv dst t.procs.(dst).recv_id
  in
  if t.model.Comm_model.link_contention then link_with_id t ~src ~dst :: base
  else base

(* What a committed communication event actually occupies depends on the
   regime:
   - Port: the whole [start, finish) span on the joint busy set;
   - Bsp: nothing — the enclosing phase owns the resources, so events
     commit and retract freely as the phase's contents change;
   - Latency_overhead: only the endpoint overheads — [o] on the sender's
     ports at the front of the event, [o] on the receiver's at the back;
     the flight in between occupies no resource.
   [occupy] applies [op] to each occupied (timeline, sub-interval) in
   [comm_busy] order, building no list: the Port case runs once per
   committed hop.  Empty sub-intervals are skipped. *)
let occupy_on op tl s f = if f > s then op tl ~start:s ~finish:f

(* One endpoint: processor [i]'s compute timeline when communication
   does not overlap computation, then its [port] unless ports are
   unlimited. *)
let occupy_side op t i port s f =
  let m = t.model in
  if not m.Comm_model.overlap then occupy_on op t.procs.(i).compute s f;
  match m.Comm_model.ports with
  | Comm_model.Unlimited -> ()
  | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional ->
      occupy_on op port s f

let occupy op t ~src ~dst ~start ~finish =
  match t.model.Comm_model.regime with
  | Comm_model.Port ->
      if t.model.Comm_model.link_contention then
        occupy_on op (link t ~src ~dst) start finish;
      occupy_side op t src t.procs.(src).send start finish;
      occupy_side op t dst t.procs.(dst).recv start finish
  | Comm_model.Bsp _ -> ()
  | Comm_model.Latency_overhead { o; _ } ->
      occupy_side op t src t.procs.(src).send start (min (start +. o) finish);
      occupy_side op t dst t.procs.(dst).recv (max (finish -. o) start) finish

let commit_comm t ~src ~dst ~start ~finish =
  occupy Timeline.add t ~src ~dst ~start ~finish

let commit_task t ~proc ~start ~finish =
  Timeline.add t.procs.(proc).compute ~start ~finish

let retract_comm t ~src ~dst ~start ~finish =
  occupy Timeline.remove t ~src ~dst ~start ~finish

let retract_task t ~proc ~start ~finish =
  Timeline.remove t.procs.(proc).compute ~start ~finish

let copy t =
  let copy_proc ps =
    let send = Timeline.copy ps.send in
    let recv = if ps.recv == ps.send then send else Timeline.copy ps.recv in
    { ps with compute = Timeline.copy ps.compute; send; recv }
  in
  let barrier =
    Option.map (fun (tl, id) -> (Timeline.copy tl, id)) t.barrier
  in
  let links = Hashtbl.create (Hashtbl.length t.links) in
  Hashtbl.iter
    (fun key (tl, id) -> Hashtbl.add links key (Timeline.copy tl, id))
    t.links;
  { t with procs = Array.map copy_proc t.procs; barrier; links }
