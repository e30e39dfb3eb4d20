let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Balance the event stream: drop End events with no open Begin and
   close Begins left open at the end of the buffer (both can happen when
   the ring overwrote one half of a pair). *)
let balance (events : Span.event list) =
  let open_stack = ref [] in
  let kept =
    List.filter
      (fun (e : Span.event) ->
        match e.Span.kind with
        | Span.Begin ->
            open_stack := e :: !open_stack;
            true
        | Span.End -> (
            match !open_stack with
            | _ :: rest ->
                open_stack := rest;
                true
            | [] -> false))
      events
  in
  let last_ts =
    List.fold_left (fun acc (e : Span.event) -> max acc e.Span.ts) 0. kept
  in
  let closers =
    List.map
      (fun (e : Span.event) ->
        { e with Span.kind = Span.End; ts = last_ts })
      !open_stack
  in
  kept @ closers

let to_chrome ?(pid = 0) ?counters events =
  let events = balance events in
  let t0 =
    match events with [] -> 0. | e :: _ -> e.Span.ts
  in
  let us ts = (ts -. t0) *. 1e6 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  emit
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"scheduler"}}|}
       pid);
  emit
    (Printf.sprintf
       {|{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"main"}}|}
       pid);
  List.iter
    (fun (e : Span.event) ->
      let ph = match e.Span.kind with Span.Begin -> "B" | Span.End -> "E" in
      let name = Buffer.create 32 in
      add_json_string name e.Span.name;
      emit
        (Printf.sprintf {|{"name":%s,"ph":"%s","ts":%.3f,"pid":%d,"tid":0}|}
           (Buffer.contents name) ph (us e.Span.ts) pid))
    events;
  (match counters with
  | None -> ()
  | Some c ->
      let last =
        List.fold_left (fun acc (e : Span.event) -> max acc e.Span.ts) t0 events
      in
      (* integral values print as JSON integers, exactly *)
      let number v =
        if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%g" v
      in
      let args =
        Counters.to_list c
        |> List.map (fun (k, v) -> Printf.sprintf {|"%s":%s|} k (number v))
        |> String.concat ","
      in
      emit
        (Printf.sprintf
           {|{"name":"engine probes","ph":"C","ts":%.3f,"pid":%d,"args":{%s}}|}
           (us last) pid args));
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let write ?counters path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome ?counters events))
