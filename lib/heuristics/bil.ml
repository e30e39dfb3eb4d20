module Graph = Taskgraph.Graph

let levels g plat =
  let n = Graph.n_tasks g and p = Platform.p plat in
  let avg_link = Platform.avg_link_cost plat in
  let bil = Array.make_matrix n p 0. in
  (* Two smallest BIL values per task, to answer min over r <> q in O(1). *)
  let min1 = Array.make n 0.
  and arg1 = Array.make n 0
  and min2 = Array.make n 0. in
  let order = Graph.topological_order g in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    for q = 0 to p - 1 do
      let downstream = ref 0. in
      Graph.iter_succ_edges g v ~f:(fun e ->
          let s = Graph.edge_dst g e in
          let remote =
            (if arg1.(s) <> q then min1.(s) else min2.(s))
            +. (Graph.edge_data g e *. avg_link)
          in
          let c = min bil.(s).(q) remote in
          if c > !downstream then downstream := c);
      bil.(v).(q) <- (Graph.weight g v *. Platform.cycle_time plat q) +. !downstream
    done;
    (* Refresh the two-minima cache for [v]. *)
    min1.(v) <- infinity;
    min2.(v) <- infinity;
    for q = 0 to p - 1 do
      if bil.(v).(q) < min1.(v) then begin
        min2.(v) <- min1.(v);
        min1.(v) <- bil.(v).(q);
        arg1.(v) <- q
      end
      else if bil.(v).(q) < min2.(v) then min2.(v) <- bil.(v).(q)
    done
  done;
  bil

let schedule ?(params = Params.default) plat g =
  Obs.Span.with_ "bil" @@ fun () ->
  let bil = levels g plat in
  let p = Platform.p plat in
  let priority =
    Array.init (Graph.n_tasks g) (fun v ->
        Array.fold_left min infinity bil.(v))
  in
  let handle engine v =
    let best = ref None in
    for q = 0 to p - 1 do
      Engine.price engine ~task:v ~proc:q;
      let score = Engine.priced_est engine +. bil.(v).(q) in
      match !best with
      | Some s when s <= score -> ()
      | _ ->
          Engine.keep engine;
          best := Some score
    done;
    Engine.commit_kept engine ~task:v
  in
  List_loop.run ~params ~priority ~handle plat g
