module Graph = Taskgraph.Graph

(* The critical path: start from the entry task of maximal (upward +
   downward) priority and repeatedly follow the successor of maximal
   priority.  With float priorities we compare with a relative epsilon. *)
let critical_path g priority =
  let close a b = Prelude.Stats.fequal ~eps:1e-9 a b in
  let cp_len = Array.fold_left max neg_infinity priority in
  let on_cp = Array.make (Graph.n_tasks g) false in
  let entry =
    List.filter (fun v -> close priority.(v) cp_len) (Graph.entry_tasks g)
  in
  (match entry with
  | [] -> ()
  | start :: _ ->
      let rec follow v =
        on_cp.(v) <- true;
        let next = ref None in
        Graph.iter_succ_edges g v ~f:(fun e ->
            let u = Graph.edge_dst g e in
            if close priority.(u) cp_len && !next = None then next := Some u);
        match !next with Some u -> follow u | None -> ()
      in
      follow start);
  on_cp

let schedule ?(params = Params.default) plat g =
  Obs.Span.with_ "cpop" @@ fun () ->
  let up = Ranking.upward g plat in
  let down = Ranking.downward g plat in
  let priority = Array.init (Graph.n_tasks g) (fun v -> up.(v) +. down.(v)) in
  let on_cp = critical_path g priority in
  (* The processor executing the whole critical path fastest (with uniform
     task speeds this is simply the fastest processor; ties to the lowest
     index). *)
  let cp_proc = ref 0 in
  for q = 1 to Platform.p plat - 1 do
    if Platform.cycle_time plat q < Platform.cycle_time plat !cp_proc then
      cp_proc := q
  done;
  let handle engine v =
    if on_cp.(v) then Engine.schedule_on engine ~task:v ~proc:!cp_proc
    else begin
      let (_ : int) = Engine.schedule_best engine ~task:v in
      ()
    end
  in
  List_loop.run ~params ~priority ~handle plat g
