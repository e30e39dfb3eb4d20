(* The list-based graph-text reader: split the text into lines, each line
   into token lists, collect tasks in a [Hashtbl] and edges in a list.
   [Graph_io.of_string] reads the text in one pass instead; the tests
   hold it to the same graphs and the same error messages as this
   reference. *)

module Graph = Onesched.Graph

let fail line_no fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Io.of_string: line %d: %s" line_no msg))
    fmt

let tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_float line_no what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail line_no "bad %s %S" what s

let parse_int line_no what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail line_no "bad %s %S" what s

let of_string text =
  let name = ref "graph" in
  let tasks = Hashtbl.create 16 in
  let edges = ref [] in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      match tokens line with
      | [] -> ()
      | [ "graph"; n ] -> name := n
      | [ "task"; id; weight ] ->
          let id = parse_int line_no "task id" id in
          if Hashtbl.mem tasks id then fail line_no "duplicate task %d" id;
          Hashtbl.add tasks id (parse_float line_no "weight" weight)
      | [ "edge"; src; dst; data ] ->
          (* right to left, as native code evaluates the tuple *)
          let data = parse_float line_no "edge data" data in
          let dst = parse_int line_no "edge destination" dst in
          let src = parse_int line_no "edge source" src in
          edges := (src, dst, data) :: !edges
      | tok :: _ -> fail line_no "unknown directive %S" tok)
    (String.split_on_char '\n' text);
  let n = Hashtbl.length tasks in
  let weights =
    Array.init n (fun id ->
        match Hashtbl.find_opt tasks id with
        | Some w -> w
        | None ->
            invalid_arg
              (Printf.sprintf "Io.of_string: missing task %d (ids must be 0..%d)"
                 id (n - 1)))
  in
  Graph.create ~name:!name ~weights ~edges:(List.rev !edges) ()
