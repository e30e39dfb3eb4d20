(* The list-based schedule checker — the executable specification the
   streaming [Validate.check] is property-tested against, copies
   included.  Same verdicts and messages; it materializes labelled
   interval lists per resource and per-edge chain lists, and is
   O(phases·comms) under BSP, so it stays off the large instances. *)

module O = Onesched
module Graph = O.Graph
module Schedule = O.Schedule
module Platform = O.Platform
module Comm_model = O.Comm_model

(* The streaming checker's tolerances and route printer, copied so that
   both report with the same thresholds and identical messages. *)
let eps = 1e-9
let fmax (a : float) b = if a >= b then a else b
let scale a b = fmax 1. (fmax (abs_float a) (abs_float b))
let feq a b = abs_float (a -. b) <= eps *. scale a b
let fle a b = a <= b +. (eps *. scale a b)

let pp_route route =
  String.concat ", "
    (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) route)

(* Check that intervals are pairwise disjoint; report via
   [on_overlap a b] with both full intervals.  Sorted by start, longest
   first among equal starts, as the streaming sweep does. *)
let check_disjoint intervals ~on_overlap =
  let sorted =
    List.stable_sort
      (fun (s1, f1, _) (s2, f2, _) ->
        match Float.compare s1 s2 with 0 -> Float.compare f2 f1 | c -> c)
      intervals
  in
  let rec walk = function
    | (s1, f1, l1) :: ((s2, f2, l2) :: _ as rest) ->
        if s2 < f1 -. eps then on_overlap (s1, f1, l1) (s2, f2, l2);
        walk rest
    | [ _ ] | [] -> ()
  in
  walk sorted

let check s =
  let g = Schedule.graph s in
  let plat = Schedule.platform s in
  let model = Schedule.model s in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Graph.n_tasks g in
  (* 1. every copy of every task: placed, on distinct processors,
     non-negative, with the right duration *)
  for v = 0 to n - 1 do
    match Schedule.copies s v with
    | [] -> err "task %d is not placed" v
    | cs ->
        let seen = ref [] in
        List.iter
          (fun (c : Schedule.placement) ->
            if List.mem c.proc !seen then
              err "task %d has two copies on processor %d" v c.proc;
            seen := c.proc :: !seen;
            if c.start < -.eps then
              err "task %d on processor %d starts at negative time %g" v
                c.proc c.start;
            let expect = Schedule.exec_duration s ~task:v ~proc:c.proc in
            if not (feq (c.finish -. c.start) expect) then
              err
                "task %d on processor %d has duration %g over [%g,%g), \
                 expected %g"
                v c.proc (c.finish -. c.start) c.start c.finish expect)
          cs
  done;
  if !errors <> [] then Error (List.rev !errors)
  else begin
    (* 2. processor exclusivity (every copy; comms join under
       no-overlap; BSP phases exclude computation on every processor) *)
    let p_count = Platform.p plat in
    let compute_intervals = Array.make p_count [] in
    for v = 0 to n - 1 do
      List.iter
        (fun (c : Schedule.placement) ->
          if c.finish > c.start then
            compute_intervals.(c.proc) <-
              (c.start, c.finish, Printf.sprintf "task %d" v)
              :: compute_intervals.(c.proc))
        (Schedule.copies s v)
    done;
    let all_comms = Schedule.comms s in
    let phases = Schedule.phases s in
    if not model.Comm_model.overlap then
      List.iter
        (fun (c : Schedule.comm) ->
          if c.finish > c.start then begin
            let label = Printf.sprintf "comm e%d" c.edge in
            compute_intervals.(c.src_proc) <-
              (c.start, c.finish, label) :: compute_intervals.(c.src_proc);
            compute_intervals.(c.dst_proc) <-
              (c.start, c.finish, label) :: compute_intervals.(c.dst_proc)
          end)
        all_comms;
    List.iteri
      (fun i (ps, pf) ->
        if pf > ps then begin
          let label = Printf.sprintf "comm phase %d" i in
          for q = 0 to p_count - 1 do
            compute_intervals.(q) <- (ps, pf, label) :: compute_intervals.(q)
          done
        end)
      phases;
    Array.iteri
      (fun q intervals ->
        check_disjoint intervals ~on_overlap:(fun (s1, f1, l1) (s2, f2, l2) ->
            err "processor %d: %s [%g,%g) overlaps %s [%g,%g)" q l1 s1 f1 l2
              s2 f2))
      compute_intervals;
    (* 3. precedence and communication chains *)
    let expected_hop_span ~data ~cost =
      match model.Comm_model.regime with
      | Comm_model.Latency_overhead { o; l } ->
          (2. *. o) +. (data *. cost) +. l
      | Comm_model.Port | Comm_model.Bsp _ -> data *. cost
    in
    let in_phase (c : Schedule.comm) =
      List.exists (fun (ps, pf) -> feq ps c.start && feq pf c.finish) phases
    in
    let is_bsp =
      match model.Comm_model.regime with
      | Comm_model.Bsp _ -> true
      | Comm_model.Port | Comm_model.Latency_overhead _ -> false
    in
    (* each edge's events in commit order, with their chain-head flags *)
    let per_edge = Array.make (max (Graph.n_edges g) 1) [] in
    for i = Schedule.n_comm_events s - 1 downto 0 do
      let c = Schedule.comm_at s i in
      per_edge.(c.Schedule.edge) <-
        (Schedule.comm_head_at s i, c) :: per_edge.(c.Schedule.edge)
    done;
    List.iter
      (fun (e : Graph.edge) ->
        let hops = List.map snd per_edge.(e.id) in
        if is_bsp then begin
          (* BSP (single-copy): a remote data edge travels in exactly
             one comm phase between the source's finish and the
             destination's start; zero-data edges need no event. *)
          let src = Schedule.placement_exn s e.src in
          let dst = Schedule.placement_exn s e.dst in
          if src.proc = dst.proc then begin
            if hops <> [] then
              err
                "edge %d: local edge on processor %d carries communication \
                 events"
                e.id src.proc;
            if not (fle src.finish dst.start) then
              err
                "edge %d: task %d on processor %d starts at %g before its \
                 local predecessor %d finishes at %g"
                e.id e.dst dst.proc dst.start e.src src.finish
          end
          else if e.data = 0. then begin
            if hops <> [] then
              err "edge %d: zero-data edge carries communication events" e.id;
            if not (fle src.finish dst.start) then
              err
                "edge %d: zero-data edge violates precedence (task %d \
                 starts at %g, predecessor finishes at %g)"
                e.id e.dst dst.start src.finish
          end
          else begin
            match hops with
            | [ c ] ->
                if not (in_phase c) then
                  err "edge %d: event [%g,%g) matches no recorded comm phase"
                    e.id c.start c.finish;
                if not (fle src.finish c.start) then
                  err
                    "edge %d: phase starts at %g before source finishes at \
                     %g"
                    e.id c.start src.finish;
                if not (fle c.finish dst.start) then
                  err
                    "edge %d: task %d starts at %g before its phase ends \
                     at %g"
                    e.id e.dst dst.start c.finish
            | [] ->
                err "edge %d: remote edge %d->%d has no communication event"
                  e.id src.proc dst.proc
            | _ ->
                err
                  "edge %d: remote edge has %d events, BSP expects exactly \
                   one"
                  e.id (List.length hops)
          end
        end
        else begin
          (* split the edge's events into chains at the head flags *)
          let chains =
            List.fold_left
              (fun chains (head, (c : Schedule.comm)) ->
                match chains with
                | cur :: rest when not head -> (c :: cur) :: rest
                | _ -> [ c ] :: chains)
              [] per_edge.(e.id)
            |> List.rev_map List.rev
          in
          (* each chain departs a copy of the source, follows the
             platform route to a processor holding a copy of the
             consumer, and prices and sequences every hop; it yields
             its destination and arrival *)
          let arrivals =
            List.map
              (fun chain ->
                let first = List.hd chain in
                let last = List.nth chain (List.length chain - 1) in
                let src = first.Schedule.src_proc in
                let dst = last.Schedule.dst_proc in
                let ready =
                  match Schedule.copy_on s ~task:e.src ~proc:src with
                  | Some cu -> cu.finish
                  | None ->
                      err
                        "edge %d: chain departs processor %d where task %d \
                         has no copy"
                        e.id src e.src;
                      first.Schedule.start
                in
                if Schedule.copy_on s ~task:e.dst ~proc:dst = None then
                  err
                    "edge %d: chain ends on processor %d where task %d has \
                     no copy"
                    e.id dst e.dst;
                let route = Platform.route plat ~src ~dst in
                let hop_pairs =
                  List.map
                    (fun (c : Schedule.comm) -> (c.src_proc, c.dst_proc))
                    chain
                in
                if hop_pairs <> route then
                  err
                    "edge %d: communication hops [%s] do not follow the \
                     platform route %d->%d [%s]"
                    e.id (pp_route hop_pairs) src dst (pp_route route);
                let arrival =
                  List.fold_left
                    (fun prev (c : Schedule.comm) ->
                      let expect =
                        expected_hop_span ~data:e.data
                          ~cost:
                            (Platform.hop_cost plat ~src:c.src_proc
                               ~dst:c.dst_proc)
                      in
                      if not (feq (c.finish -. c.start) expect) then
                        err
                          "edge %d: hop %d->%d has duration %g over \
                           [%g,%g), expected %g"
                          e.id c.src_proc c.dst_proc (c.finish -. c.start)
                          c.start c.finish expect;
                      if not (fle prev c.start) then
                        err
                          "edge %d: hop %d->%d starts at %g before data is \
                           ready at %g"
                          e.id c.src_proc c.dst_proc c.start prev;
                      c.finish)
                    ready chain
                in
                (dst, arrival))
              chains
          in
          (* every copy of the consumer is fed in time: by a source copy
             on its processor, by the one chain delivering there, or, on
             a zero-data edge without events, by any source copy *)
          List.iter
            (fun (cv : Schedule.placement) ->
              let ins = List.filter (fun (dst, _) -> dst = cv.proc) arrivals in
              if List.length ins > 1 then
                err "edge %d: %d chains deliver to processor %d" e.id
                  (List.length ins) cv.proc;
              let in_time (cu : Schedule.placement) = fle cu.finish cv.start in
              let fed =
                Option.fold ~none:false ~some:in_time
                  (Schedule.copy_on s ~task:e.src ~proc:cv.proc)
                || (match ins with
                   | [ (_, arrival) ] -> fle arrival cv.start
                   | _ -> false)
                || e.data = 0. && hops = []
                   && List.exists in_time (Schedule.copies s e.src)
              in
              if not fed then
                err
                  "edge %d: copy of task %d on processor %d starts at %g but \
                   no completed copy of task %d feeds it in time"
                  e.id e.dst cv.proc cv.start e.src)
            (Schedule.copies s e.dst)
        end)
      (Graph.edges g);
    (* 3b. BSP phase pricing: a phase moving an h-relation of volume [h]
       must span at least g·h + L.  Phases that lost events to
       [filter_comms] may be over-provisioned; never under. *)
    (match model.Comm_model.regime with
    | Comm_model.Bsp { g = gp; l = lp } ->
        List.iteri
          (fun i (ps, pf) ->
            let h =
              List.fold_left
                (fun acc (c : Schedule.comm) ->
                  if feq ps c.start && feq pf c.finish then
                    acc +. Graph.edge_data g c.edge
                  else acc)
                0. all_comms
            in
            let need = (gp *. h) +. lp in
            if not (fle need (pf -. ps)) then
              err
                "comm phase %d [%g,%g): spans %g but its h-relation of %g \
                 needs g*h+L = %g"
                i ps pf (pf -. ps) h need)
          phases
    | Comm_model.Port | Comm_model.Latency_overhead _ ->
        if phases <> [] then
          err "schedule records %d comm phases outside the BSP regime"
            (List.length phases));
    (* 4b. link contention: one message per undirected direct link *)
    if model.Comm_model.link_contention then begin
      let by_link = Hashtbl.create 16 in
      List.iter
        (fun (c : Schedule.comm) ->
          if c.finish > c.start then begin
            let key =
              (min c.src_proc c.dst_proc, max c.src_proc c.dst_proc)
            in
            let label =
              Printf.sprintf "e%d %d->%d" c.edge c.src_proc c.dst_proc
            in
            let old =
              Option.value ~default:[] (Hashtbl.find_opt by_link key)
            in
            Hashtbl.replace by_link key ((c.start, c.finish, label) :: old)
          end)
        all_comms;
      Hashtbl.iter
        (fun (a, b) intervals ->
          check_disjoint intervals
            ~on_overlap:(fun (s1, f1, l1) (s2, f2, l2) ->
              err "link %d-%d: %s [%g,%g) overlaps %s [%g,%g)" a b l1 s1 f1
                l2 s2 f2))
        by_link
    end;
    (* 4. port discipline; under latency+overhead only the endpoint
       overhead sub-windows occupy the ports *)
    (match model.Comm_model.ports with
    | Comm_model.Unlimited -> ()
    | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional
      ->
        let port_windows (c : Schedule.comm) =
          match model.Comm_model.regime with
          | Comm_model.Latency_overhead { o; _ } ->
              ( (c.start, min (c.start +. o) c.finish),
                (max (c.finish -. o) c.start, c.finish) )
          | Comm_model.Port | Comm_model.Bsp _ ->
              ((c.start, c.finish), (c.start, c.finish))
        in
        let sends = Array.make p_count [] in
        let recvs = Array.make p_count [] in
        List.iter
          (fun (c : Schedule.comm) ->
            let (ss, sf), (rs, rf) = port_windows c in
            let label =
              Printf.sprintf "e%d %d->%d" c.edge c.src_proc c.dst_proc
            in
            if sf > ss then
              sends.(c.src_proc) <- (ss, sf, label) :: sends.(c.src_proc);
            if rf > rs then
              recvs.(c.dst_proc) <- (rs, rf, label) :: recvs.(c.dst_proc))
          all_comms;
        let report kind q (s1, f1, l1) (s2, f2, l2) =
          err
            "processor %d: %s port conflict: %s [%g,%g) overlaps %s [%g,%g)"
            q kind l1 s1 f1 l2 s2 f2
        in
        for q = 0 to p_count - 1 do
          match model.Comm_model.ports with
          | Comm_model.One_port_bidirectional ->
              check_disjoint sends.(q) ~on_overlap:(report "send" q);
              check_disjoint recvs.(q) ~on_overlap:(report "recv" q)
          | Comm_model.One_port_unidirectional ->
              check_disjoint
                (sends.(q) @ recvs.(q))
                ~on_overlap:(report "uni" q)
          | Comm_model.Unlimited -> ()
        done);
    match List.rev !errors with [] -> Ok () | es -> Error es
  end
