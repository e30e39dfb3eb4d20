let palette =
  [| "#8dd3c7"; "#ffffb3"; "#bebada"; "#fb8072"; "#80b1d3"; "#fdb462";
     "#b3de69"; "#fccde5"; "#d9d9d9"; "#bc80bd"; "#ccebc5"; "#ffed6f" |]

let render ?proc_of g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=TB;\n" (Graph.name g));
  for v = 0 to Graph.n_tasks g - 1 do
    let colour =
      match proc_of with
      | None -> ""
      | Some f ->
          Printf.sprintf ", style=filled, fillcolor=%S"
            palette.(f v mod Array.length palette)
    in
    Buffer.add_string buf
      (Printf.sprintf "  t%d [label=\"v%d\\nw=%g\"%s];\n" v v (Graph.weight g v)
         colour)
  done;
  List.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "  t%d -> t%d [label=\"%g\"];\n" e.src e.dst e.data))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_string g = render g
let with_allocation g ~proc_of = render ~proc_of g
