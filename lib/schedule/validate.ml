module Graph = Taskgraph.Graph

module Comm_model = Commmodel.Comm_model

let eps = 1e-9

(* [Stdlib.max] at type [float]: the polymorphic one boxes its
   arguments for [caml_greaterequal].  With it [feq] (which is
   [Prelude.Stats.fequal ~eps]) and [fle] inline into the edge pass and
   allocate nothing. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let[@inline] scale a b = fmax 1. (fmax (abs_float a) (abs_float b))
let[@inline] feq a b = abs_float (a -. b) <= eps *. scale a b
let[@inline] fle a b = a <= b +. (eps *. scale a b)

let pp_route route =
  String.concat ", "
    (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) route)

(* ------------------------------------------------------------------ *)
(* The streaming checker.                                              *)
(*                                                                     *)
(* Occupancy constraints (processor exclusivity, link contention, port *)
(* discipline) all reduce to "intervals on a resource are pairwise     *)
(* disjoint".  Instead of materializing per-resource lists of labelled *)
(* intervals — one tuple and one formatted string per event, even on   *)
(* success — events are packed int tags bucketed per resource id in    *)
(* CSR form with their starts and finishes beside them, each bucket is *)
(* sorted on its own by [Prelude.Tagsort] (start ascending, longest    *)
(* first), and one linear pass per bucket compares adjacent events;    *)
(* labels are formatted only for offending pairs.                      *)
(*                                                                     *)
(* Two events overlap when the later start (on equal starts, the       *)
(* shorter event's) falls more than [eps] before the other's finish.   *)
(* Sorted longest first among equal starts, any overlapping pair       *)
(* implies an overlapping adjacent pair: if slots [i < j] overlap,     *)
(* then slot [i + 1] starts no later than [j], so it overlaps [i].     *)
(*                                                                     *)
(* Each copy of a task ([Schedule.place_copy]) is a tag of its own.    *)
(* An edge carries one provenance chain per remote consumer copy,      *)
(* delimited by [Schedule.comm_head_at]; precedence holds per consumer *)
(* copy.  A single-copy schedule builds no per-task list.              *)
(* ------------------------------------------------------------------ *)

(* [sweep ~n_res ~emit ~start ~finish ~on_overlap] — [emit yield]
   must produce the same (resource, tag) sequence on both calls: the
   first sizes the buckets, the second fills them.  [start]/[finish]
   hold every tag's interval, filled once by the caller; the bucket
   fill copies them next to the tags, so the sort and the pass compare
   flat floats. *)
let sweep ~n_res ~emit ~(start : float array) ~(finish : float array)
    ~on_overlap =
  if n_res > 0 then begin
    let off = Array.make (n_res + 1) 0 in
    emit (fun res _tag -> off.(res + 1) <- off.(res + 1) + 1);
    for r = 0 to n_res - 1 do
      off.(r + 1) <- off.(r + 1) + off.(r)
    done;
    let total = off.(n_res) in
    if total > 1 then begin
      let tags = Array.make total 0 in
      let st = Array.create_float total in
      let fn = Array.create_float total in
      let cursor = Array.sub off 0 n_res in
      emit (fun res tag ->
          let i = cursor.(res) in
          tags.(i) <- tag;
          st.(i) <- start.(tag);
          fn.(i) <- finish.(tag);
          cursor.(res) <- i + 1);
      Prelude.Tagsort.sort_buckets ~off ~key:st ~fin:fn ~tag:tags;
      for r = 0 to n_res - 1 do
        for k = off.(r) to off.(r + 1) - 2 do
          if st.(k + 1) < fn.(k) -. eps then
            on_overlap r tags.(k) tags.(k + 1)
        done
      done
    end
  end

let sweep_overlaps ~res ~start ~finish =
  let n_res = Array.fold_left (fun m r -> max m (r + 1)) 0 res in
  let found = ref [] in
  sweep ~n_res
    ~emit:(fun yield -> Array.iteri (fun i r -> yield r i) res)
    ~start ~finish
    ~on_overlap:(fun r a b -> found := (r, a, b) :: !found);
  List.rev !found

let check s =
  let g = Schedule.graph s in
  let plat = Schedule.platform s in
  let model = Schedule.model s in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Graph.n_tasks g in
  let nc = Schedule.n_comm_events s in
  let nph = Schedule.n_phases s in
  (* Tag encoding: [0, n) the primary copies, [n, nt) the extra copies
     grouped by task (task [v]'s are [dup_off.(v) .. dup_off.(v+1) - 1]),
     [nt, nt+nc) comm events, [nt+nc, nt+nc+nph) phases.  Without
     extra copies [nt = n] and [dup_task] and [dup_off] are empty. *)
  let nd = Schedule.n_dup_copies s in
  let nt = n + nd in
  let proc_of = Array.make nt 0 in
  let start_of = Array.make (nt + nc + nph) 0. in
  let finish_of = Array.make (nt + nc + nph) 0. in
  let dup_task = Array.make nd 0 in
  let dup_off = Array.make (if nd = 0 then 0 else n + 1) nt in
  let check_span v t =
    let proc = proc_of.(t) and start = start_of.(t) in
    let finish = finish_of.(t) in
    if start < -.eps then
      err "task %d on processor %d starts at negative time %g" v proc start;
    let expect = Schedule.exec_duration s ~task:v ~proc in
    if not (feq (finish -. start) expect) then
      err "task %d on processor %d has duration %g over [%g,%g), expected %g"
        v proc (finish -. start) start finish expect
  in
  (* 1. placements and durations of every copy, the extra copies after
     the primaries; a task's copies sit on distinct processors *)
  for v = 0 to n - 1 do
    if not (Schedule.is_placed s v) then err "task %d is not placed" v
    else begin
      proc_of.(v) <- Schedule.proc_of_exn s v;
      start_of.(v) <- Schedule.start_of_exn s v;
      finish_of.(v) <- Schedule.finish_of_exn s v;
      check_span v v
    end
  done;
  if nd > 0 then begin
    let t = ref n in
    for v = 0 to n - 1 do
      dup_off.(v) <- !t;
      List.iter
        (fun (c : Schedule.placement) ->
          proc_of.(!t) <- c.proc;
          start_of.(!t) <- c.start;
          finish_of.(!t) <- c.finish;
          dup_task.(!t - n) <- v;
          check_span v !t;
          incr t)
        (Schedule.dup_copies s v)
    done
  end;
  (* Task [v]'s copies are the tags [copy_tag v 0 .. n_copies v - 1];
     [copy_on v q] is the tag of its first copy on processor [q], or -1. *)
  let n_copies v = if nd = 0 then 1 else 1 + dup_off.(v + 1) - dup_off.(v) in
  let copy_tag v j = if j = 0 then v else dup_off.(v) + j - 1 in
  let copy_on v q =
    if proc_of.(v) = q then v
    else begin
      let found = ref (-1) in
      for j = n_copies v - 1 downto 1 do
        if proc_of.(copy_tag v j) = q then found := copy_tag v j
      done;
      !found
    end
  in
  for t = n to nt - 1 do
    let v = dup_task.(t - n) in
    if copy_on v proc_of.(t) <> t then
      err "task %d has two copies on processor %d" v proc_of.(t)
  done;
  if !errors <> [] then Error (List.rev !errors)
  else begin
    let p_count = Platform.p plat in
    (* 2. processor exclusivity (every copy; comms join under no-overlap;
       BSP phases exclude computation on every processor) *)
    for i = 0 to nc - 1 do
      start_of.(nt + i) <- Schedule.comm_start s i;
      finish_of.(nt + i) <- Schedule.comm_finish s i
    done;
    for i = 0 to nph - 1 do
      let ps, pf = Schedule.phase_at s i in
      start_of.(nt + nc + i) <- ps;
      finish_of.(nt + nc + i) <- pf
    done;
    let label_of tag =
      if tag < nt then
        Printf.sprintf "task %d" (if tag < n then tag else dup_task.(tag - n))
      else if tag < nt + nc then
        Printf.sprintf "comm e%d" (Schedule.comm_edge s (tag - nt))
      else Printf.sprintf "comm phase %d" (tag - nt - nc)
    in
    let emit yield =
      for t = 0 to nt - 1 do
        if finish_of.(t) > start_of.(t) then yield proc_of.(t) t
      done;
      if not model.Comm_model.overlap then
        for i = 0 to nc - 1 do
          if finish_of.(nt + i) > start_of.(nt + i) then begin
            yield (Schedule.comm_src s i) (nt + i);
            yield (Schedule.comm_dst s i) (nt + i)
          end
        done;
      for i = 0 to nph - 1 do
        let ps, pf = Schedule.phase_at s i in
        if pf > ps then
          for q = 0 to p_count - 1 do
            yield q (nt + nc + i)
          done
      done
    in
    sweep ~n_res:p_count ~emit ~start:start_of ~finish:finish_of
      ~on_overlap:(fun q a b ->
        err "processor %d: %s [%g,%g) overlaps %s [%g,%g)" q (label_of a)
          start_of.(a) finish_of.(a) (label_of b) start_of.(b) finish_of.(b));
    (* Phase lookup by start for BSP: phase indices sorted by start.
       Every phase whose start is [feq] to [x] lies within the band
       [x ± 2·eps·(1+|x|)], so a binary search plus a short scan visits
       (a superset of) the candidates the old linear [List.exists] did;
       the exact [feq] test runs inside the callback's caller. *)
    let ph_starts = Array.init nph (fun i -> fst (Schedule.phase_at s i)) in
    let ph_order = Array.init nph Fun.id in
    Prelude.Tagsort.sort ~key:ph_starts
      ~fin:(Array.init nph (fun i -> snd (Schedule.phase_at s i)))
      ~tag:ph_order;
    let iter_phases_matching x ~f =
      let band = eps *. 2. *. (1. +. abs_float x) in
      let lo = ref 0 and hi = ref nph in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ph_starts.(mid) < x -. band then lo := mid + 1 else hi := mid
      done;
      let k = ref !lo in
      while !k < nph && ph_starts.(!k) <= x +. band do
        f ph_order.(!k);
        incr k
      done
    in
    (* whether comm event [i] spans a recorded phase *)
    let in_phase i =
      let cs = start_of.(nt + i) and cf = finish_of.(nt + i) in
      let found = ref false in
      iter_phases_matching cs ~f:(fun k ->
          let ps, pf = Schedule.phase_at s k in
          if feq ps cs && feq pf cf then found := true);
      !found
    in
    (* 3. precedence and communication chains.  Each edge's hops, in
       commit order, as CSR slices of comm indices, so the pass
       below walks them without a list, a tuple or a closure per edge. *)
    let n_edges = Graph.n_edges g in
    let hop_off = Array.make (n_edges + 1) 0 in
    for i = 0 to nc - 1 do
      let e = Schedule.comm_edge s i in
      hop_off.(e + 1) <- hop_off.(e + 1) + 1
    done;
    for e = 0 to n_edges - 1 do
      hop_off.(e + 1) <- hop_off.(e + 1) + hop_off.(e)
    done;
    let hops = Array.make nc 0 in
    let cursor = Array.sub hop_off 0 n_edges in
    for i = 0 to nc - 1 do
      let e = Schedule.comm_edge s i in
      hops.(cursor.(e)) <- i;
      cursor.(e) <- cursor.(e) + 1
    done;
    (* a hop's span is [data * cost], plus [2o + l] under latency+overhead *)
    let lat_o, lat_l, lat, is_bsp =
      match model.Comm_model.regime with
      | Comm_model.Latency_overhead { o; l } -> (o, l, true, false)
      | Comm_model.Bsp _ -> (0., 0., false, true)
      | Comm_model.Port -> (0., 0., false, false)
    in
    (* One provenance chain of edge [e = (u, v)], the hops
       [hops.(a .. b)]: it departs a copy of [u], follows the platform
       route to its last hop's destination, which holds a copy of [v],
       and every hop is priced and starts once the data is there — the
       first one once the source copy finishes.  Hop lists are formatted
       only on error. *)
    let check_chain e u v a b =
      let src = Schedule.comm_src s hops.(a) in
      let dst = Schedule.comm_dst s hops.(b) in
      let data = Graph.edge_data g e in
      let tu = copy_on u src in
      if tu < 0 then
        err "edge %d: chain departs processor %d where task %d has no copy" e
          src u;
      if copy_on v dst < 0 then
        err "edge %d: chain ends on processor %d where task %d has no copy" e
          dst v;
      let at = ref src and follows = ref true in
      let ready =
        ref (if tu < 0 then start_of.(nt + hops.(a)) else finish_of.(tu))
      in
      for k = a to b do
        let i = hops.(k) in
        let cs = start_of.(nt + i) and cf = finish_of.(nt + i) in
        let c_src = Schedule.comm_src s i and c_dst = Schedule.comm_dst s i in
        if c_src <> !at || c_dst <> Platform.next_hop plat ~src:c_src ~dst then
          follows := false;
        at := c_dst;
        let cost = Platform.hop_cost plat ~src:c_src ~dst:c_dst in
        let expect =
          if lat then (2. *. lat_o) +. (data *. cost) +. lat_l
          else data *. cost
        in
        if not (feq (cf -. cs) expect) then
          err "edge %d: hop %d->%d has duration %g over [%g,%g), expected %g"
            e c_src c_dst (cf -. cs) cs cf expect;
        if not (fle !ready cs) then
          err "edge %d: hop %d->%d starts at %g before data is ready at %g" e
            c_src c_dst cs !ready;
        ready := cf
      done;
      if not !follows then begin
        let hop_pairs =
          List.init (b - a + 1) (fun k ->
              let i = hops.(a + k) in
              (Schedule.comm_src s i, Schedule.comm_dst s i))
        in
        err "edge %d: communication hops [%s] do not follow the platform \
             route %d->%d [%s]"
          e (pp_route hop_pairs) src dst
          (pp_route (Platform.route plat ~src ~dst))
      end
    in
    for e = 0 to n_edges - 1 do
      let u = Graph.edge_src g e and v = Graph.edge_dst g e in
      let data = Graph.edge_data g e in
      let first = hop_off.(e) and last = hop_off.(e + 1) - 1 in
      let hop_count = last - first + 1 in
      if is_bsp then begin
        (* BSP (single-copy): a remote data edge travels in exactly one
           comm phase between the source's finish and the destination's
           start; zero-data edges need no event. *)
        let up = proc_of.(u) and vp = proc_of.(v) in
        let ufin = finish_of.(u) and vstart = start_of.(v) in
        if up = vp then begin
          if hop_count > 0 then
            err "edge %d: local edge on processor %d carries communication \
                 events" e up;
          if not (fle ufin vstart) then
            err "edge %d: task %d on processor %d starts at %g before its \
                 local predecessor %d finishes at %g"
              e v vp vstart u ufin
        end
        else if data = 0. then begin
          if hop_count > 0 then
            err "edge %d: zero-data edge carries communication events" e;
          if not (fle ufin vstart) then
            err "edge %d: zero-data edge violates precedence (task %d \
                 starts at %g, predecessor finishes at %g)"
              e v vstart ufin
        end
        else if hop_count = 0 then
          err "edge %d: remote edge %d->%d has no communication event" e up vp
        else if hop_count > 1 then
          err "edge %d: remote edge has %d events, BSP expects exactly one" e
            hop_count
        else begin
          let i = hops.(first) in
          let cs = start_of.(nt + i) and cf = finish_of.(nt + i) in
          if not (in_phase i) then
            err "edge %d: event [%g,%g) matches no recorded comm phase" e cs
              cf;
          if not (fle ufin cs) then
            err "edge %d: phase starts at %g before source finishes at %g" e
              cs ufin;
          if not (fle cf vstart) then
            err "edge %d: task %d starts at %g before its phase ends at %g" e
              v vstart cf
        end
      end
      else begin
        (* the slice splits into chains at the head flags; its first hop
           always starts one *)
        let a = ref first in
        while !a <= last do
          let b = ref !a in
          while !b < last && not (Schedule.comm_head_at s hops.(!b + 1)) do
            incr b
          done;
          check_chain e u v !a !b;
          a := !b + 1
        done;
        (* Every copy of [v] is fed in time: by the copy of [u] on its
           processor, by the one chain delivering there, or, on a
           zero-data edge without events, by any copy of [u]. *)
        for j = 0 to n_copies v - 1 do
          let tv = copy_tag v j in
          let vp = proc_of.(tv) and vstart = start_of.(tv) in
          let n_in = ref 0 and arrival = ref 0. in
          for k = first to last do
            if k = last || Schedule.comm_head_at s hops.(k + 1) then begin
              let i = hops.(k) in
              if Schedule.comm_dst s i = vp then begin
                incr n_in;
                arrival := finish_of.(nt + i)
              end
            end
          done;
          let tu = copy_on u vp in
          let fed_zero_data = ref false in
          if data = 0. && hop_count = 0 then
            for j' = 0 to n_copies u - 1 do
              if fle finish_of.(copy_tag u j') vstart then fed_zero_data := true
            done;
          if !n_in > 1 then
            err "edge %d: %d chains deliver to processor %d" e !n_in vp
          else if
            not
              ((tu >= 0 && fle finish_of.(tu) vstart)
              || (!n_in = 1 && fle !arrival vstart)
              || !fed_zero_data)
          then
            if !n_in = 1 then
              err "edge %d: task %d on processor %d starts at %g before data \
                   arrives at %g"
                e v vp vstart !arrival
            else
              err "edge %d: copy of task %d on processor %d starts at %g but \
                   no completed copy of task %d feeds it in time"
                e v vp vstart u
        done
      end
    done;
    (* 3b. BSP phase pricing: a phase moving an h-relation of volume [h]
       must span at least g·h + L.  Phases that lost events to
       [filter_comms] may be over-provisioned; never under. *)
    (match model.Comm_model.regime with
    | Comm_model.Bsp { g = gp; l = lp } ->
        let h = Array.make (max 1 nph) 0. in
        for i = 0 to nc - 1 do
          let cs = start_of.(nt + i) and cf = finish_of.(nt + i) in
          let data = Graph.edge_data g (Schedule.comm_edge s i) in
          iter_phases_matching cs ~f:(fun k ->
              let ps, pf = Schedule.phase_at s k in
              if feq ps cs && feq pf cf then h.(k) <- h.(k) +. data)
        done;
        for i = 0 to nph - 1 do
          let ps, pf = Schedule.phase_at s i in
          let need = (gp *. h.(i)) +. lp in
          if not (fle need (pf -. ps)) then
            err "comm phase %d [%g,%g): spans %g but its h-relation of %g \
                 needs g*h+L = %g"
              i ps pf (pf -. ps) h.(i) need
        done
    | Comm_model.Port | Comm_model.Latency_overhead _ ->
        if nph > 0 then
          err "schedule records %d comm phases outside the BSP regime" nph);
    (* 4b. link contention: one message per undirected direct link.
       Links get dense resource ids in first-seen order. *)
    if model.Comm_model.link_contention then begin
      let link_ids = Hashtbl.create 16 in
      let link_pairs = Prelude.Vec.create () in
      let id_of a b =
        let key = (min a b * p_count) + max a b in
        match Hashtbl.find_opt link_ids key with
        | Some id -> id
        | None ->
            let id = Prelude.Vec.length link_pairs in
            Hashtbl.add link_ids key id;
            Prelude.Vec.push link_pairs (min a b, max a b);
            id
      in
      let cstart = Array.sub start_of nt nc in
      let cfinish = Array.sub finish_of nt nc in
      for i = 0 to nc - 1 do
        if cfinish.(i) > cstart.(i) then
          ignore (id_of (Schedule.comm_src s i) (Schedule.comm_dst s i) : int)
      done;
      let clabel i =
        Printf.sprintf "e%d %d->%d" (Schedule.comm_edge s i)
          (Schedule.comm_src s i) (Schedule.comm_dst s i)
      in
      sweep
        ~n_res:(Prelude.Vec.length link_pairs)
        ~emit:(fun yield ->
          for i = 0 to nc - 1 do
            if cfinish.(i) > cstart.(i) then
              yield (id_of (Schedule.comm_src s i) (Schedule.comm_dst s i)) i
          done)
        ~start:cstart ~finish:cfinish
        ~on_overlap:(fun r t1 t2 ->
          let a, b = Prelude.Vec.get link_pairs r in
          err "link %d-%d: %s [%g,%g) overlaps %s [%g,%g)" a b (clabel t1)
            cstart.(t1) cfinish.(t1) (clabel t2) cstart.(t2) cfinish.(t2))
    end;
    (* 4. port discipline; under latency+overhead only the endpoint
       overhead sub-windows occupy the ports.  Tag encoding: [2i] the
       send window of comm [i], [2i+1] its receive window.  Resources:
       bidirectional keeps send port [q] and receive port [p+q]
       independent; unidirectional pools both on [q]. *)
    (match model.Comm_model.ports with
    | Comm_model.Unlimited -> ()
    | Comm_model.One_port_bidirectional | Comm_model.One_port_unidirectional
      ->
        let bidir =
          model.Comm_model.ports = Comm_model.One_port_bidirectional
        in
        let wstart = Array.make (2 * nc) 0. in
        let wfinish = Array.make (2 * nc) 0. in
        for i = 0 to nc - 1 do
          let cs = start_of.(nt + i) and cf = finish_of.(nt + i) in
          match model.Comm_model.regime with
          | Comm_model.Latency_overhead { o; _ } ->
              wstart.(2 * i) <- cs;
              wfinish.(2 * i) <- min (cs +. o) cf;
              wstart.((2 * i) + 1) <- max (cf -. o) cs;
              wfinish.((2 * i) + 1) <- cf
          | Comm_model.Port | Comm_model.Bsp _ ->
              wstart.(2 * i) <- cs;
              wfinish.(2 * i) <- cf;
              wstart.((2 * i) + 1) <- cs;
              wfinish.((2 * i) + 1) <- cf
        done;
        let wlabel tag =
          let i = tag / 2 in
          Printf.sprintf "e%d %d->%d" (Schedule.comm_edge s i)
            (Schedule.comm_src s i) (Schedule.comm_dst s i)
        in
        sweep
          ~n_res:(if bidir then 2 * p_count else p_count)
          ~emit:(fun yield ->
            for i = 0 to nc - 1 do
              if wfinish.(2 * i) > wstart.(2 * i) then
                yield (Schedule.comm_src s i) (2 * i);
              if wfinish.((2 * i) + 1) > wstart.((2 * i) + 1) then begin
                let dst = Schedule.comm_dst s i in
                yield (if bidir then p_count + dst else dst) ((2 * i) + 1)
              end
            done)
          ~start:wstart ~finish:wfinish
          ~on_overlap:(fun r t1 t2 ->
            let q = if bidir && r >= p_count then r - p_count else r in
            let kind =
              if not bidir then "uni"
              else if r < p_count then "send"
              else "recv"
            in
            err "processor %d: %s port conflict: %s [%g,%g) overlaps %s \
                 [%g,%g)"
              q kind (wlabel t1) wstart.(t1) wfinish.(t1) (wlabel t2)
              wstart.(t2) wfinish.(t2)));
    match List.rev !errors with [] -> Ok () | es -> Error es
  end

let check_exn s =
  match check s with
  | Ok () -> ()
  | Error es ->
      failwith
        (Printf.sprintf "invalid schedule: %s"
           (String.concat "; " (List.filteri (fun i _ -> i < 5) es)))

let is_valid s = match check s with Ok () -> true | Error _ -> false
