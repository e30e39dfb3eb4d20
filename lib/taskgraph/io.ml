module Vec = Prelude.Vec

let fail line_no fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Io.of_string: line %d: %s" line_no msg))
    fmt

(* A plain run of decimal digits short enough to fit an int exactly. *)
let plain_digits text s e max_len =
  e > s
  && e - s <= max_len
  &&
  let ok = ref true in
  for i = s to e - 1 do
    if text.[i] < '0' || text.[i] > '9' then ok := false
  done;
  !ok

let digits_value text s e =
  let v = ref 0 in
  for i = s to e - 1 do
    v := (!v * 10) + Char.code text.[i] - Char.code '0'
  done;
  !v

(* Numbers accept whatever [int_of_string]/[float_of_string] accept; the
   common all-digit token skips the substring. *)
let parse_int line_no what text s e =
  if plain_digits text s e 18 then digits_value text s e
  else
    let tok = String.sub text s (e - s) in
    match int_of_string_opt tok with
    | Some i -> i
    | None -> fail line_no "bad %s %S" what tok

let parse_float line_no what text s e =
  if plain_digits text s e 15 then float_of_int (digits_value text s e)
  else
    let tok = String.sub text s (e - s) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail line_no "bad %s %S" what tok

(* Record a token ending at [i] if one is open; the first four keep their
   bounds, later ones only count. *)
let close_token ts te ntok start i =
  if start < 0 then ntok
  else begin
    if ntok < 4 then begin
      ts.(ntok) <- start;
      te.(ntok) <- i
    end;
    ntok + 1
  end

(* Tokens of the line starting at [i0], up to its first '#': returns the
   token count and the index of the line's '\n' (or the text's end). *)
let scan_line text i0 ts te =
  let len = String.length text in
  let i = ref i0 and ntok = ref 0 and start = ref (-1) and comment = ref false in
  while !i < len && String.unsafe_get text !i <> '\n' do
    (if not !comment then
       match String.unsafe_get text !i with
       | (' ' | '\t' | '#') as c ->
           ntok := close_token ts te !ntok !start !i;
           start := -1;
           comment := c = '#'
       | _ -> if !start < 0 then start := !i);
    incr i
  done;
  (close_token ts te !ntok !start !i, !i)

(* One pass over the text.  Each line is cut into at most four
   whitespace-separated tokens (a fifth only marks the line as too long)
   before any '#'; tasks land in arrays indexed by id, edges in growable
   columns, and [Graph.of_arrays] builds the graph from them.  A task line
   takes at least eight bytes and lines are newline-separated, so there
   are fewer than [cap] tasks and every valid id lies below it; larger or
   negative ids still need duplicate detection, and go to a side table. *)
let of_string text =
  let len = String.length text in
  let name = ref "graph" in
  let cap = (len / 8) + 1 in
  let weights = Array.make cap 0. and seen = Bytes.make cap '\000' in
  let far = Hashtbl.create 0 in
  let n_tasks = ref 0 in
  let srcs = Vec.create () and dsts = Vec.create () and datas = Vec.create () in
  let ts = Array.make 4 0 and te = Array.make 4 0 in
  let is_tok k word =
    let s = ts.(k) and w = String.length word in
    te.(k) - s = w
    &&
    let i = ref 0 in
    while !i < w && text.[s + !i] = word.[!i] do
      incr i
    done;
    !i = w
  in
  let tok k = String.sub text ts.(k) (te.(k) - ts.(k)) in
  let add_task line_no =
    let id = parse_int line_no "task id" text ts.(1) te.(1) in
    if id >= 0 && id < cap then begin
      if Bytes.get seen id <> '\000' then fail line_no "duplicate task %d" id;
      weights.(id) <- parse_float line_no "weight" text ts.(2) te.(2);
      Bytes.set seen id '\001'
    end
    else begin
      if Hashtbl.mem far id then fail line_no "duplicate task %d" id;
      Hashtbl.add far id (parse_float line_no "weight" text ts.(2) te.(2))
    end;
    incr n_tasks
  in
  let add_edge line_no =
    (* fields checked right to left, as the first reader did *)
    let data = parse_float line_no "edge data" text ts.(3) te.(3) in
    let dst = parse_int line_no "edge destination" text ts.(2) te.(2) in
    let src = parse_int line_no "edge source" text ts.(1) te.(1) in
    Vec.push srcs src;
    Vec.push dsts dst;
    Vec.push datas data
  in
  let pos = ref 0 and line_no = ref 0 in
  while !pos <= len do
    incr line_no;
    let ntok, stop = scan_line text !pos ts te in
    pos := stop;
    (match ntok with
    | 0 -> ()
    | 2 when is_tok 0 "graph" -> name := tok 1
    | 3 when is_tok 0 "task" -> add_task !line_no
    | 4 when is_tok 0 "edge" -> add_edge !line_no
    | _ -> fail !line_no "unknown directive %S" (tok 0));
    incr pos
  done;
  let n = !n_tasks in
  for id = 0 to n - 1 do
    if id >= cap || Bytes.get seen id = '\000' then
      invalid_arg (Printf.sprintf "Io.of_string: missing task %d (ids must be 0..%d)" id (n - 1))
  done;
  Graph.of_arrays ~name:!name ~weights:(Array.sub weights 0 n)
    ~edge_srcs:(Vec.to_array srcs) ~edge_dsts:(Vec.to_array dsts)
    ~edge_datas:(Vec.to_array datas) ()

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %s\n" (Graph.name g));
  for v = 0 to Graph.n_tasks g - 1 do
    Buffer.add_string buf (Printf.sprintf "task %d %.17g\n" v (Graph.weight g v))
  done;
  List.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d %.17g\n" e.src e.dst e.data))
    (Graph.edges g);
  Buffer.contents buf

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))
