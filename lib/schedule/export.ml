module Graph = Taskgraph.Graph

module Numfmt = Prelude.Numfmt

(* [put w s n] writes the literal [s], then [n] as "%d"; [put_g] and
   [put_h] do the same with a float as "%g" and "%h".  All of them write
   unchecked, into room the caller reserved for its whole row or entry.
   The float writers are inlined, like {!Numfmt.add_g} and
   {!Numfmt.add_h}, so that a time read from the schedule's arrays is
   written without being boxed. *)
let put w s n =
  Numfmt.add_string w s;
  Numfmt.add_int w n

let[@inline] put_g w s x =
  Numfmt.add_string w s;
  Numfmt.add_g w x

let[@inline] put_h w s x =
  Numfmt.add_string w s;
  Numfmt.add_h w x

let str = Numfmt.add_string
let int_w = Numfmt.int_width
let g_w = Numfmt.g_width
let h_w = Numfmt.h_width

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
      Schedule.comm_start s ((tag - n) / 2)
    else (snd dups.(tag - n - (2 * nc))).Schedule.start
  in
  let starts = Array.init total ts_of in
  let order = Array.init total Fun.id in
  (* [Tagsort] breaks equal starts by its [fin] key, descending: the tag
     itself, exact as a float, gives the descending-tag order *)
  Prelude.Tagsort.sort ~key:starts ~fin:(Array.init total float_of_int)
    ~tag:order;
  let p = Platform.p (Schedule.platform s) in
  let w = Numfmt.create (256 + (total * 160)) in
  Numfmt.reserve w 1;
  str w "[";
  (* Thread name metadata makes the ports readable in the viewer. *)
  let first = ref true in
  let sep () = if !first then first := false else str w ",\n" in
  for q = 0 to p - 1 do
    List.iter
      (fun (tid, label) ->
        Numfmt.reserve w (128 + (2 * int_w));
        sep ();
        put w {|{"name":"thread_name","ph":"M","pid":|} q;
        put w {|,"tid":|} tid;
        str w {|,"args":{"name":"|};
        str w label;
        str w {|"}}|})
      [ (tid_cpu, "cpu"); (tid_send, "send port"); (tid_recv, "recv port") ]
  done;
  (* A "complete" event, reserved whole by the caller.  [name] and [args]
     write the name (which never needs JSON escaping) and the body of the
     args object. *)
  let event ~name ~pid ~tid ~start ~finish ~args =
    str w {|{"name":"|};
    name ();
    put_g w {|","ph":"X","ts":|} (time_unit *. start);
    put_g w {|,"dur":|} (time_unit *. (finish -. start));
    put w {|,"pid":|} pid;
    put w {|,"tid":|} tid;
    str w {|,"args":{|};
    args ();
    str w "}}"
  in
  let task_args v () =
    put w {|"task":|} v;
    put_g w {|,"weight":|} (Graph.weight g v)
  in
  (* an event's literals and separator take under 128 bytes; at most
     eight ints (a hop's name and args) and three floats fill the rest *)
  let event_width = 128 + (8 * int_w) + (3 * g_w) in
  Array.iter
    (fun tag ->
      Numfmt.reserve w event_width;
      sep ();
      if tag < n then begin
        let pl = Schedule.placement_exn s tag in
        event
          ~name:(fun () -> put w "v" tag)
          ~pid:pl.Schedule.proc ~tid:tid_cpu ~start:pl.Schedule.start
          ~finish:pl.Schedule.finish ~args:(task_args tag)
      end
      else if tag >= n + (2 * nc) then begin
        let v, pl = dups.(tag - n - (2 * nc)) in
        event
          ~name:(fun () ->
            put w "v" v;
            str w "'")
          ~pid:pl.Schedule.proc ~tid:tid_cpu ~start:pl.Schedule.start
          ~finish:pl.Schedule.finish
          ~args:(fun () ->
            task_args v ();
            str w {|,"copy":true|})
      end
      else begin
        let i = (tag - n) / 2 in
        let edge = Schedule.comm_edge s i in
        let src = Schedule.comm_src s i and dst = Schedule.comm_dst s i in
        let recv = (tag - n) land 1 = 1 in
        event
          ~name:(fun () ->
            put w "e" edge;
            put w ":" src;
            put w "->" dst)
          ~pid:(if recv then dst else src)
          ~tid:(if recv then tid_recv else tid_send)
          ~start:(Schedule.comm_start s i) ~finish:(Schedule.comm_finish s i)
          ~args:(fun () ->
            put w {|"edge":|} edge;
            put w {|,"src":|} src;
            put w {|,"dst":|} dst)
      end)
    order;
  Numfmt.reserve w 2;
  str w "]\n";
  Numfmt.contents w

let csv_header = "kind,name,processor,resource,start,finish,duration\n"

(* The longest row: ["comm,e"], two ints, a four-letter resource, three
   floats, five commas and the newline. *)
let csv_row_width = 6 + (2 * int_w) + 4 + (3 * g_w) + 6

(* One CSV row; [prefix] is "kind,x" and [id] completes the name
   "x<id>".  Inlined, so its floats stay unboxed. *)
let[@inline] csv_row w prefix id proc resource start finish =
  Numfmt.reserve w csv_row_width;
  put w prefix id;
  put w "," proc;
  str w ",";
  str w resource;
  put_g w "," start;
  put_g w "," finish;
  put_g w "," (finish -. start);
  str w "\n"

let to_csv s =
  let g = Schedule.graph s in
  let rows = Graph.n_tasks g + (2 * Schedule.n_comm_events s) in
  let w = Numfmt.create (String.length csv_header + (rows * 48)) in
  Numfmt.reserve w (String.length csv_header);
  str w csv_header;
  for v = 0 to Graph.n_tasks g - 1 do
    csv_row w "task,v" v (Schedule.proc_of_exn s v) "cpu"
      (Schedule.start_of_exn s v) (Schedule.finish_of_exn s v);
    List.iter
      (fun (c : Schedule.placement) ->
        csv_row w "copy,v" v c.proc "cpu" c.start c.finish)
      (Schedule.dup_copies s v)
  done;
  for i = 0 to Schedule.n_comm_events s - 1 do
    let edge = Schedule.comm_edge s i in
    let start = Schedule.comm_start s i and finish = Schedule.comm_finish s i in
    csv_row w "comm,e" edge (Schedule.comm_src s i) "send" start finish;
    csv_row w "comm,e" edge (Schedule.comm_dst s i) "recv" start finish
  done;
  Numfmt.contents w

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* The longest entry: [";c<edge>=<src>><dst>:<start>:<finish>"], three
   ints, two floats and six literal bytes. *)
let fingerprint_entry_width = 6 + (3 * int_w) + (2 * h_w)

let[@inline] put_times w start finish =
  put_h w ":" start;
  put_h w ":" finish

let fingerprint s =
  let g = Schedule.graph s in
  let w =
    Numfmt.create (64 + ((Graph.n_tasks g + Schedule.n_comm_events s) * 48))
  in
  (* entries: ";t<task>=<proc>:<start>:<finish>" (or ";t<task>=-"),
     ";d<task>=..." per extra copy, ";c<edge>=<src>><dst>:<start>:<finish>"
     per hop and ";p=<start>:<finish>" per BSP phase; each entry reserves
     its room first *)
  let entry () = Numfmt.reserve w fingerprint_entry_width in
  entry ();
  if Schedule.all_placed s then put_h w "m=" (Schedule.makespan s)
  else str w "m=-";
  for v = 0 to Graph.n_tasks g - 1 do
    entry ();
    put w ";t" v;
    if Schedule.is_placed s v then begin
      put w "=" (Schedule.proc_of_exn s v);
      put_times w (Schedule.start_of_exn s v) (Schedule.finish_of_exn s v)
    end
    else str w "=-"
  done;
  (* copy lines appear only on duplicated schedules, so single-copy
     fingerprints are bit-identical to the pre-duplication era *)
  if Schedule.has_dups s then
    for v = 0 to Graph.n_tasks g - 1 do
      List.iter
        (fun (c : Schedule.placement) ->
          entry ();
          put w ";d" v;
          put w "=" c.Schedule.proc;
          put_times w c.Schedule.start c.Schedule.finish)
        (Schedule.dup_copies s v)
    done;
  for i = 0 to Schedule.n_comm_events s - 1 do
    entry ();
    put w ";c" (Schedule.comm_edge s i);
    put w "=" (Schedule.comm_src s i);
    put w ">" (Schedule.comm_dst s i);
    put_times w (Schedule.comm_start s i) (Schedule.comm_finish s i)
  done;
  Schedule.iter_phases s ~f:(fun start finish ->
      entry ();
      put_h w ";p=" start;
      put_h w ":" finish);
  Digest.to_hex (Numfmt.digest w)
