module Graph = Taskgraph.Graph

module Numfmt = Prelude.Numfmt

(* [put buf s n] appends the literal [s], then [n] as "%d"; [put_g] and
   [put_h] do the same with a float as "%g" and "%h". *)
let put buf s n =
  Buffer.add_string buf s;
  Numfmt.add_int buf n

let put_g buf s x =
  Buffer.add_string buf s;
  Numfmt.add_g buf x

let put_h buf s x =
  Buffer.add_string buf s;
  Numfmt.add_h buf x

(* Thread ids inside a processor's trace group. *)
let tid_cpu = 0
let tid_send = 1
let tid_recv = 2

(* Body events are ordered by start time.  Rather than materializing
   (ts, line) pairs and sorting them, events are packed int tags —
   [v] for task v, [n + 2i] / [n + 2i + 1] for the send/recv views of
   comm [i] — and [Prelude.Tagsort] orders them before a single
   formatting pass into the output buffer.  Ties keep the historical
   order of the previous implementation (a stable sort over a
   prepend-built list): reverse emission order, i.e. descending tag. *)
let to_chrome_trace ?(time_unit = 1.0) s =
  let g = Schedule.graph s in
  let n = Graph.n_tasks g in
  let nc = Schedule.n_comms s in
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
  let starts = Array.init total ts_of in
  let order = Array.init total Fun.id in
  (* [Tagsort] breaks equal starts by its [fin] key, descending: the tag
     itself, exact as a float, gives the descending-tag order *)
  Prelude.Tagsort.sort ~key:starts ~fin:(Array.init total float_of_int)
    ~tag:order;
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
        put buf {|{"name":"thread_name","ph":"M","pid":|} q;
        put buf {|,"tid":|} tid;
        Buffer.add_string buf {|,"args":{"name":"|};
        Buffer.add_string buf label;
        Buffer.add_string buf {|"}}|})
      [ (tid_cpu, "cpu"); (tid_send, "send port"); (tid_recv, "recv port") ]
  done;
  (* A "complete" event.  [name] and [args] write the name (which never
     needs JSON escaping) and the body of the args object. *)
  let event ~name ~pid ~tid ~start ~finish ~args =
    Buffer.add_string buf {|{"name":"|};
    name ();
    put_g buf {|","ph":"X","ts":|} (time_unit *. start);
    put_g buf {|,"dur":|} (time_unit *. (finish -. start));
    put buf {|,"pid":|} pid;
    put buf {|,"tid":|} tid;
    Buffer.add_string buf {|,"args":{|};
    args ();
    Buffer.add_string buf "}}"
  in
  let task_args v () =
    put buf {|"task":|} v;
    put_g buf {|,"weight":|} (Graph.weight g v)
  in
  Array.iter
    (fun tag ->
      sep ();
      if tag < n then begin
        let pl = Schedule.placement_exn s tag in
        event
          ~name:(fun () -> put buf "v" tag)
          ~pid:pl.Schedule.proc ~tid:tid_cpu ~start:pl.Schedule.start
          ~finish:pl.Schedule.finish ~args:(task_args tag)
      end
      else if tag >= n + (2 * nc) then begin
        let v, pl = dups.(tag - n - (2 * nc)) in
        event
          ~name:(fun () ->
            put buf "v" v;
            Buffer.add_char buf '\'')
          ~pid:pl.Schedule.proc ~tid:tid_cpu ~start:pl.Schedule.start
          ~finish:pl.Schedule.finish
          ~args:(fun () ->
            task_args v ();
            Buffer.add_string buf {|,"copy":true|})
      end
      else begin
        let c = Schedule.comm_at s ((tag - n) / 2) in
        let recv = (tag - n) land 1 = 1 in
        event
          ~name:(fun () ->
            put buf "e" c.edge;
            put buf ":" c.src_proc;
            put buf "->" c.dst_proc)
          ~pid:(if recv then c.dst_proc else c.src_proc)
          ~tid:(if recv then tid_recv else tid_send)
          ~start:c.start ~finish:c.finish
          ~args:(fun () ->
            put buf {|"edge":|} c.edge;
            put buf {|,"src":|} c.src_proc;
            put buf {|,"dst":|} c.dst_proc)
      end)
    order;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let to_csv s =
  let g = Schedule.graph s in
  let buf = Buffer.create (1024 + ((Graph.n_tasks g + Schedule.n_comms s) * 48)) in
  Buffer.add_string buf "kind,name,processor,resource,start,finish,duration\n";
  (* [prefix] is "kind,x" and [id] completes the name "x<id>" *)
  let row prefix id proc resource start finish =
    put buf prefix id;
    put buf "," proc;
    Buffer.add_char buf ',';
    Buffer.add_string buf resource;
    put_g buf "," start;
    put_g buf "," finish;
    put_g buf "," (finish -. start);
    Buffer.add_char buf '\n'
  in
  for v = 0 to Graph.n_tasks g - 1 do
    let pl = Schedule.placement_exn s v in
    row "task,v" v pl.Schedule.proc "cpu" pl.Schedule.start pl.Schedule.finish;
    List.iter
      (fun (c : Schedule.placement) ->
        row "copy,v" v c.proc "cpu" c.start c.finish)
      (Schedule.dup_copies s v)
  done;
  Schedule.iter_comms s ~f:(fun (c : Schedule.comm) ->
      row "comm,e" c.edge c.src_proc "send" c.start c.finish;
      row "comm,e" c.edge c.dst_proc "recv" c.start c.finish);
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let fingerprint s =
  let g = Schedule.graph s in
  let buf = Buffer.create (64 + ((Graph.n_tasks g + Schedule.n_comms s) * 32)) in
  (* entries: ";t<task>=<proc>:<start>:<finish>" (or ";t<task>=-"),
     ";d<task>=..." per extra copy, ";c<edge>=<src>><dst>:<start>:<finish>"
     per hop and ";p=<start>:<finish>" per BSP phase *)
  let times start finish =
    put_h buf ":" start;
    put_h buf ":" finish
  in
  if Schedule.all_placed s then put_h buf "m=" (Schedule.makespan s)
  else Buffer.add_string buf "m=-";
  for v = 0 to Graph.n_tasks g - 1 do
    put buf ";t" v;
    if Schedule.is_placed s v then begin
      put buf "=" (Schedule.proc_of_exn s v);
      times (Schedule.start_of_exn s v) (Schedule.finish_of_exn s v)
    end
    else Buffer.add_string buf "=-"
  done;
  (* copy lines appear only on duplicated schedules, so single-copy
     fingerprints are bit-identical to the pre-duplication era *)
  if Schedule.has_dups s then
    for v = 0 to Graph.n_tasks g - 1 do
      List.iter
        (fun (c : Schedule.placement) ->
          put buf ";d" v;
          put buf "=" c.Schedule.proc;
          times c.Schedule.start c.Schedule.finish)
        (Schedule.dup_copies s v)
    done;
  Schedule.iter_comms s ~f:(fun (c : Schedule.comm) ->
      put buf ";c" c.Schedule.edge;
      put buf "=" c.Schedule.src_proc;
      put buf ">" c.Schedule.dst_proc;
      times c.Schedule.start c.Schedule.finish);
  Schedule.iter_phases s ~f:(fun start finish ->
      put_h buf ";p=" start;
      put_h buf ":" finish);
  Digest.to_hex (Digest.string (Buffer.contents buf))
