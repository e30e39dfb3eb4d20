module Graph = Taskgraph.Graph
module Comm_model = Commmodel.Comm_model

(* Qualitative palette (ColorBrewer Set3 + friends), cycled by id. *)
let palette =
  [| "#8dd3c7"; "#ffffb3"; "#bebada"; "#fb8072"; "#80b1d3"; "#fdb462";
     "#b3de69"; "#fccde5"; "#d9d9d9"; "#bc80bd"; "#ccebc5"; "#ffed6f" |]

let colour i = palette.(i mod Array.length palette)

let xml_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '<' -> "&lt;"
         | '>' -> "&gt;"
         | '&' -> "&amp;"
         | '"' -> "&quot;"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let render ?(width = 1000) ?(lane_height = 26) ?show_ports s =
  let plat = Schedule.platform s in
  let g = Schedule.graph s in
  let model = Schedule.model s in
  let show_ports =
    match show_ports with
    | Some b -> b
    | None -> Comm_model.restricts_ports model
  in
  let p = Platform.p plat in
  let makespan = max (Schedule.makespan s) 1e-9 in
  let margin_left = 70 and margin_top = 20 and axis_height = 30 in
  let plot_width = width - margin_left - 20 in
  let port_height = lane_height / 2 in
  let lanes_per_proc = if show_ports then 3 else 1 in
  let proc_height =
    if show_ports then lane_height + (2 * port_height) + 8 else lane_height + 8
  in
  let height = margin_top + (p * proc_height) + axis_height in
  let x t = margin_left + int_of_float (float_of_int plot_width *. t /. makespan) in
  let buf = Buffer.create 4096 in
  let rect ~x:x0 ~y ~w ~h ~fill ~title ~label =
    Buffer.add_string buf
      (Printf.sprintf
         {|<g><rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#333" stroke-width="0.5"><title>%s</title></rect>|}
         x0 y (max w 1) h fill (xml_escape title));
    if w > 14 && label <> "" then
      Buffer.add_string buf
        (Printf.sprintf
           {|<text x="%d" y="%d" font-size="9" font-family="sans-serif" text-anchor="middle">%s</text>|}
           (x0 + (w / 2))
           (y + (h / 2) + 3)
           (xml_escape label));
    Buffer.add_string buf "</g>\n"
  in
  Buffer.add_string buf
    (Printf.sprintf
       {|<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">
<rect width="%d" height="%d" fill="white"/>
<text x="10" y="14" font-size="12">%s on %s (%s) — makespan %g</text>
|}
       width height width height
       (xml_escape (Graph.name g))
       (xml_escape (Platform.name plat))
       (Comm_model.name model) makespan);
  ignore lanes_per_proc;
  (* lanes *)
  for q = 0 to p - 1 do
    let y0 = margin_top + (q * proc_height) in
    Buffer.add_string buf
      (Printf.sprintf
         {|<text x="6" y="%d" font-size="11">P%d</text>
<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>
|}
         (y0 + (lane_height / 2) + 4)
         q margin_left
         (y0 + lane_height)
         (margin_left + plot_width)
         (y0 + lane_height))
  done;
  (* tasks; duplicate copies are labelled with a trailing prime *)
  for v = 0 to Graph.n_tasks g - 1 do
    List.iteri
      (fun i (pl : Schedule.placement) ->
        if pl.finish > pl.start then begin
          let name = Printf.sprintf "v%d%s" v (if i = 0 then "" else "'") in
          rect ~x:(x pl.start)
            ~y:(margin_top + (pl.proc * proc_height))
            ~w:(x pl.finish - x pl.start)
            ~h:lane_height ~fill:(colour v)
            ~title:
              (Printf.sprintf "%s on P%d: [%g, %g)" name pl.proc pl.start
                 pl.finish)
            ~label:name
        end)
      (Schedule.copies s v)
  done;
  (* communications on port lanes *)
  if show_ports then
    List.iter
      (fun (c : Schedule.comm) ->
        if c.finish > c.start then begin
          let draw ~proc ~lane ~label =
            let y0 =
              margin_top + (proc * proc_height) + lane_height
              + (lane * port_height)
            in
            rect ~x:(x c.start) ~y:y0
              ~w:(x c.finish - x c.start)
              ~h:port_height ~fill:(colour c.edge)
              ~title:
                (Printf.sprintf "e%d: P%d -> P%d [%g, %g)" c.edge c.src_proc
                   c.dst_proc c.start c.finish)
              ~label
          in
          draw ~proc:c.src_proc ~lane:0 ~label:(Printf.sprintf ">%d" c.dst_proc);
          draw ~proc:c.dst_proc ~lane:1 ~label:(Printf.sprintf "<%d" c.src_proc)
        end)
      (Schedule.comms s);
  (* time axis *)
  let axis_y = margin_top + (p * proc_height) + 12 in
  Buffer.add_string buf
    (Printf.sprintf
       {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>
|}
       margin_left axis_y (margin_left + plot_width) axis_y);
  for tick = 0 to 10 do
    let t = makespan *. float_of_int tick /. 10. in
    Buffer.add_string buf
      (Printf.sprintf
         {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/><text x="%d" y="%d" font-size="9" text-anchor="middle">%g</text>
|}
         (x t) axis_y (x t) (axis_y + 4) (x t) (axis_y + 14)
         (Float.round (t *. 10.) /. 10.))
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save s path = Export.write_file path (render s)
