module Graph = Taskgraph.Graph

module Comm_model = Commmodel.Comm_model

(* Paint [label] over columns [c0, c1) of [row], clipping to length. *)
let paint row c0 c1 label =
  let len = Bytes.length row in
  let c0 = max 0 c0 and c1 = min len c1 in
  for c = c0 to c1 - 1 do
    Bytes.set row c '#'
  done;
  let lbl = label in
  let avail = c1 - c0 in
  if avail >= String.length lbl && avail > 0 then
    Bytes.blit_string lbl 0 row (c0 + ((avail - String.length lbl) / 2))
      (String.length lbl)

(* All rows are painted in two passes — one over tasks, one over the
   comm events — instead of rescanning every event list per processor. *)
let render ?(width = 72) ?show_ports s =
  let plat = Schedule.platform s in
  let model = Schedule.model s in
  let show_ports =
    match show_ports with
    | Some b -> b
    | None -> Comm_model.restricts_ports model
  in
  let span = max (Schedule.makespan s) 1e-9 in
  let col t = int_of_float (float_of_int width *. t /. span) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "makespan = %g   (one column = %g time units)\n" span
       (span /. float_of_int width));
  let p = Platform.p plat in
  let cpu_rows = Array.init p (fun _ -> Bytes.make width '.') in
  for v = 0 to Graph.n_tasks (Schedule.graph s) - 1 do
    (match Schedule.placement s v with
    | Some pl when pl.finish > pl.start ->
        paint cpu_rows.(pl.proc) (col pl.start)
          (max (col pl.finish) (col pl.start + 1))
          (string_of_int v)
    | Some _ | None -> ());
    (* duplicate copies are labelled with a trailing prime *)
    List.iter
      (fun (c : Schedule.placement) ->
        if c.finish > c.start then
          paint cpu_rows.(c.proc) (col c.start)
            (max (col c.finish) (col c.start + 1))
            (string_of_int v ^ "'"))
      (Schedule.dup_copies s v)
  done;
  let send_rows, recv_rows =
    if not show_ports then ([||], [||])
    else begin
      let sends = Array.init p (fun _ -> Bytes.make width '.') in
      let recvs = Array.init p (fun _ -> Bytes.make width '.') in
      Schedule.iter_comms s ~f:(fun (c : Schedule.comm) ->
          if c.finish > c.start then begin
            paint sends.(c.src_proc) (col c.start)
              (max (col c.finish) (col c.start + 1))
              (Printf.sprintf ">%d" c.dst_proc);
            paint recvs.(c.dst_proc) (col c.start)
              (max (col c.finish) (col c.start + 1))
              (Printf.sprintf "<%d" c.src_proc)
          end);
      (sends, recvs)
    end
  in
  for q = 0 to p - 1 do
    Buffer.add_string buf
      (Printf.sprintf "P%-2d cpu  |%s|\n" q (Bytes.to_string cpu_rows.(q)));
    if show_ports then begin
      Buffer.add_string buf
        (Printf.sprintf "    send |%s|\n" (Bytes.to_string send_rows.(q)));
      Buffer.add_string buf
        (Printf.sprintf "    recv |%s|\n" (Bytes.to_string recv_rows.(q)))
    end
  done;
  Buffer.contents buf

let listing s =
  let n = Graph.n_tasks (Schedule.graph s) in
  let nc = Schedule.n_comm_events s in
  let dups =
    List.concat_map
      (fun v ->
        List.map
          (fun (c : Schedule.placement) -> (v, c))
          (Schedule.dup_copies s v))
      (List.init n Fun.id)
  in
  let nd = List.length dups in
  let events = Array.make (n + nc + nd) (0., "") in
  List.iteri
    (fun i ((v : int), (c : Schedule.placement)) ->
      events.(n + nc + i) <-
        ( c.start,
          Printf.sprintf "[%10.3f, %10.3f) P%d  exec v%d (copy)" c.start
            c.finish c.proc v ))
    dups;
  for v = 0 to n - 1 do
    events.(v) <-
      (match Schedule.placement s v with
      | Some pl ->
          ( pl.start,
            Printf.sprintf "[%10.3f, %10.3f) P%d  exec v%d" pl.start pl.finish
              pl.proc v )
      | None -> (infinity, Printf.sprintf "unplaced v%d" v))
  done;
  for i = 0 to nc - 1 do
    let c = Schedule.comm_at s i in
    events.(n + i) <-
      ( c.start,
        Printf.sprintf "[%10.3f, %10.3f) P%d->P%d  comm e%d" c.start c.finish
          c.src_proc c.dst_proc c.edge )
  done;
  (* Same order as the historical list sort: polymorphic compare on
     (start, line) pairs — equal starts tie-break on the line text. *)
  Array.sort compare events;
  let buf = Buffer.create (64 * (n + nc)) in
  Array.iter
    (fun (_, line) ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf
