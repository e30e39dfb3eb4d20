module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule

type profile = {
  makespan : float;
  buckets : int;
  compute : float array array;
  send : float array array;
  recv : float array array;
}

(* Spread the interval [start, finish) over the bucket grid, adding the
   covered fraction of each bucket. *)
let deposit row ~buckets ~makespan ~start ~finish =
  if makespan > 0. && finish > start then begin
    let width = makespan /. float_of_int buckets in
    let first = int_of_float (start /. width) in
    let last = min (buckets - 1) (int_of_float ((finish -. 1e-12) /. width)) in
    for b = max 0 first to last do
      let b0 = float_of_int b *. width and b1 = float_of_int (b + 1) *. width in
      let overlap = min finish b1 -. max start b0 in
      if overlap > 0. then row.(b) <- min 1. (row.(b) +. (overlap /. width))
    done
  end

let profile ?(buckets = 40) s =
  if buckets < 1 then invalid_arg "Utilization.profile: buckets < 1";
  let g = Schedule.graph s in
  let p = Platform.p (Schedule.platform s) in
  let makespan = Schedule.makespan s in
  let make () = Array.init p (fun _ -> Array.make buckets 0.) in
  let compute = make () and send = make () and recv = make () in
  for v = 0 to Graph.n_tasks g - 1 do
    List.iter
      (fun (pl : Schedule.placement) ->
        deposit compute.(pl.proc) ~buckets ~makespan ~start:pl.start ~finish:pl.finish)
      (Schedule.copies s v)
  done;
  List.iter
    (fun (c : Schedule.comm) ->
      deposit send.(c.src_proc) ~buckets ~makespan ~start:c.start ~finish:c.finish;
      deposit recv.(c.dst_proc) ~buckets ~makespan ~start:c.start ~finish:c.finish)
    (Schedule.comms s);
  { makespan; buckets; compute; send; recv }

let compute_fractions s =
  let g = Schedule.graph s in
  let p = Platform.p (Schedule.platform s) in
  let makespan = Schedule.makespan s in
  let busy = Array.make p 0. in
  for v = 0 to Graph.n_tasks g - 1 do
    List.iter
      (fun (pl : Schedule.placement) ->
        busy.(pl.proc) <- busy.(pl.proc) +. (pl.finish -. pl.start))
      (Schedule.copies s v)
  done;
  if makespan > 0. then Array.map (fun b -> b /. makespan) busy else busy

let port_fractions s =
  let p = Platform.p (Schedule.platform s) in
  let makespan = Schedule.makespan s in
  (* merge each processor's port intervals and measure the union *)
  let intervals = Array.make p [] in
  List.iter
    (fun (c : Schedule.comm) ->
      if c.finish > c.start then begin
        intervals.(c.src_proc) <- (c.start, c.finish) :: intervals.(c.src_proc);
        intervals.(c.dst_proc) <- (c.start, c.finish) :: intervals.(c.dst_proc)
      end)
    (Schedule.comms s);
  Array.map
    (fun ivs ->
      let sorted = List.sort compare ivs in
      let rec merge acc = function
        | [] -> acc
        | (s0, f0) :: rest -> (
            match acc with
            | (s1, f1) :: acc' when s0 <= f1 -> merge ((s1, max f0 f1) :: acc') rest
            | acc -> merge ((s0, f0) :: acc) rest)
      in
      let total =
        List.fold_left (fun t (s0, f0) -> t +. (f0 -. s0)) 0. (merge [] sorted)
      in
      if makespan > 0. then total /. makespan else 0.)
    intervals

let density_chars = " .:-=+*#%@"

let sparkline row =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun v ->
            let level =
              min 9 (max 0 (int_of_float (v *. 9.999)))
            in
            String.make 1 density_chars.[level])
          row))

let render p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "utilization over [0, %g), %d buckets (' '=idle, '@'=full)\n"
       p.makespan p.buckets);
  Array.iteri
    (fun q _ ->
      Buffer.add_string buf
        (Printf.sprintf "P%-2d cpu  |%s|\n" q (sparkline p.compute.(q)));
      Buffer.add_string buf
        (Printf.sprintf "    send |%s|\n" (sparkline p.send.(q)));
      Buffer.add_string buf
        (Printf.sprintf "    recv |%s|\n" (sparkline p.recv.(q))))
    p.compute;
  Buffer.contents buf
