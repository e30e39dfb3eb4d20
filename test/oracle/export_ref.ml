(* The Printf exporter: [Export.to_chrome_trace], [Export.to_csv] and
   [Export.fingerprint] written with one [Printf.sprintf] per field or
   row.  The library formats numbers with [Numfmt] instead; the tests
   hold it to byte identity with this reference. *)

module O = Onesched
module Graph = O.Graph
module Schedule = O.Schedule
module Platform = O.Platform

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace "complete" event, appended straight to [buf]. *)
let add_complete_event buf ~name ~pid ~tid ~ts ~dur ~args =
  Buffer.add_string buf
    (Printf.sprintf
       {|{"name":"%s","ph":"X","ts":%g,"dur":%g,"pid":%d,"tid":%d,"args":{%s}}|}
       (json_escape name) ts dur pid tid args)

(* Thread ids inside a processor's trace group. *)
let tid_cpu = 0
let tid_send = 1
let tid_recv = 2

(* Body events are ordered by start time.  Rather than materializing
   (ts, line) pairs and sorting them, events are packed int tags —
   [v] for task v, [n + 2i] / [n + 2i + 1] for the send/recv views of
   comm [i] — and an index sort orders them before a single formatting
   pass into the output buffer.  Ties keep the historical order of the
   previous implementation (a stable sort over a prepend-built list):
   reverse emission order, i.e. descending tag. *)
let to_chrome_trace ?(time_unit = 1.0) s =
  let g = Schedule.graph s in
  let n = Graph.n_tasks g in
  let nc = Schedule.n_comm_events s in
  (* duplicate copies (if any) pack after the task and comm tags *)
  let dups =
    Array.of_list
      (List.concat_map
         (fun v ->
           List.map
             (fun (c : Schedule.placement) -> (v, c))
             (Schedule.dup_copies s v))
         (List.init n Fun.id))
  in
  let nd = Array.length dups in
  let total = n + (2 * nc) + nd in
  let ts_of tag =
    if tag < n then (Schedule.placement_exn s tag).Schedule.start
    else if tag < n + (2 * nc) then
      (Schedule.comm_at s ((tag - n) / 2)).Schedule.start
    else (snd dups.(tag - n - (2 * nc))).Schedule.start
  in
  let order = Array.init total Fun.id in
  Array.sort
    (fun a b ->
      match compare (ts_of a) (ts_of b) with
      | 0 -> Int.compare b a
      | c -> c)
    order;
  let p = Platform.p (Schedule.platform s) in
  let buf = Buffer.create (256 + (total * 96)) in
  Buffer.add_char buf '[';
  (* Thread name metadata makes the ports readable in the viewer. *)
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  for q = 0 to p - 1 do
    List.iter
      (fun (tid, label) ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}|}
             q tid label))
      [ (tid_cpu, "cpu"); (tid_send, "send port"); (tid_recv, "recv port") ]
  done;
  Array.iter
    (fun tag ->
      sep ();
      if tag < n then begin
        let pl = Schedule.placement_exn s tag in
        add_complete_event buf
          ~name:(Printf.sprintf "v%d" tag)
          ~pid:pl.Schedule.proc ~tid:tid_cpu
          ~ts:(time_unit *. pl.Schedule.start)
          ~dur:(time_unit *. (pl.Schedule.finish -. pl.Schedule.start))
          ~args:
            (Printf.sprintf {|"task":%d,"weight":%g|} tag (Graph.weight g tag))
      end
      else if tag >= n + (2 * nc) then begin
        let v, pl = dups.(tag - n - (2 * nc)) in
        add_complete_event buf
          ~name:(Printf.sprintf "v%d'" v)
          ~pid:pl.Schedule.proc ~tid:tid_cpu
          ~ts:(time_unit *. pl.Schedule.start)
          ~dur:(time_unit *. (pl.Schedule.finish -. pl.Schedule.start))
          ~args:
            (Printf.sprintf {|"task":%d,"weight":%g,"copy":true|} v
               (Graph.weight g v))
      end
      else begin
        let c = Schedule.comm_at s ((tag - n) / 2) in
        let recv = (tag - n) land 1 = 1 in
        add_complete_event buf
          ~name:(Printf.sprintf "e%d:%d->%d" c.edge c.src_proc c.dst_proc)
          ~pid:(if recv then c.dst_proc else c.src_proc)
          ~tid:(if recv then tid_recv else tid_send)
          ~ts:(time_unit *. c.start)
          ~dur:(time_unit *. (c.finish -. c.start))
          ~args:
            (Printf.sprintf {|"edge":%d,"src":%d,"dst":%d|} c.edge c.src_proc
               c.dst_proc)
      end)
    order;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let to_csv s =
  let g = Schedule.graph s in
  let buf =
    Buffer.create (1024 + ((Graph.n_tasks g + Schedule.n_comm_events s) * 48))
  in
  Buffer.add_string buf "kind,name,processor,resource,start,finish,duration\n";
  let row kind name proc resource start finish =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%d,%s,%g,%g,%g\n" kind name proc resource start
         finish (finish -. start))
  in
  for v = 0 to Graph.n_tasks g - 1 do
    let pl = Schedule.placement_exn s v in
    row "task" (Printf.sprintf "v%d" v) pl.Schedule.proc "cpu" pl.Schedule.start
      pl.Schedule.finish;
    List.iter
      (fun (c : Schedule.placement) ->
        row "copy" (Printf.sprintf "v%d" v) c.proc "cpu" c.start c.finish)
      (Schedule.dup_copies s v)
  done;
  Schedule.iter_comms s ~f:(fun (c : Schedule.comm) ->
      let name = Printf.sprintf "e%d" c.edge in
      row "comm" name c.src_proc "send" c.start c.finish;
      row "comm" name c.dst_proc "recv" c.start c.finish);
  Buffer.contents buf

let fingerprint s =
  let g = Schedule.graph s in
  let buf =
    Buffer.create (64 + ((Graph.n_tasks g + Schedule.n_comm_events s) * 32))
  in
  (if Schedule.all_placed s then
     Buffer.add_string buf (Printf.sprintf "m=%h" (Schedule.makespan s))
   else Buffer.add_string buf "m=-");
  for v = 0 to Graph.n_tasks g - 1 do
    match Schedule.placement s v with
    | None -> Buffer.add_string buf (Printf.sprintf ";t%d=-" v)
    | Some pl ->
        Buffer.add_string buf
          (Printf.sprintf ";t%d=%d:%h:%h" v pl.Schedule.proc pl.Schedule.start
             pl.Schedule.finish)
  done;
  (* copy lines appear only on duplicated schedules, so single-copy
     fingerprints are bit-identical to the pre-duplication era *)
  if Schedule.has_dups s then
    for v = 0 to Graph.n_tasks g - 1 do
      List.iter
        (fun (c : Schedule.placement) ->
          Buffer.add_string buf
            (Printf.sprintf ";d%d=%d:%h:%h" v c.Schedule.proc c.Schedule.start
               c.Schedule.finish))
        (Schedule.dup_copies s v)
    done;
  Schedule.iter_comms s ~f:(fun (c : Schedule.comm) ->
      Buffer.add_string buf
        (Printf.sprintf ";c%d=%d>%d:%h:%h" c.Schedule.edge c.Schedule.src_proc
           c.Schedule.dst_proc c.Schedule.start c.Schedule.finish));
  Schedule.iter_phases s ~f:(fun start finish ->
      Buffer.add_string buf (Printf.sprintf ";p=%h:%h" start finish));
  Digest.to_hex (Digest.string (Buffer.contents buf))
