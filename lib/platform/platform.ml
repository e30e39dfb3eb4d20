type t = {
  name : string;
  cycle_times : float array;
  (* Route cost (sum over hops) for every ordered pair. *)
  route_cost : float array array;
  (* Direct-link cost; infinity when no direct link. *)
  direct : float array array;
  (* next.(q).(r) is the first hop on the route q -> r (-1 when q = r). *)
  next_hop : int array array;
  (* The §4.1 averages, computed once: sum of 1/t_i, and the harmonic
     mean of the route costs. *)
  aggregate_speed : float;
  avg_link_cost : float;
}

(* Harmonic mean of the route costs over ordered pairs [q <> r], 0 when a
   link is free.  The sum runs from the last pair back to the first, the
   order [Stats.harmonic_mean] adds a pair list built by prepending in
   row order: the ranks' bits, which the goldens pin, depend on it. *)
let harmonic_link_cost route_cost =
  let n = Array.length route_cost in
  let free = ref false and sum = ref 0. in
  for q = n - 1 downto 0 do
    for r = n - 1 downto 0 do
      if q <> r then begin
        let c = route_cost.(q).(r) in
        if c = 0. then free := true;
        sum := !sum +. (1. /. c)
      end
    done
  done;
  if n = 1 || !free then 0. else float_of_int (n * (n - 1)) /. !sum

let make ~name ~cycle_times ~route_cost ~direct ~next_hop =
  {
    name;
    cycle_times;
    route_cost;
    direct;
    next_hop;
    aggregate_speed =
      Array.fold_left (fun acc ct -> acc +. (1. /. ct)) 0. cycle_times;
    avg_link_cost = harmonic_link_cost route_cost;
  }

let validate_cycle_times cycle_times =
  if Array.length cycle_times = 0 then invalid_arg "Platform: no processors";
  Array.iter
    (fun ct ->
      if ct <= 0. || Float.is_nan ct then
        invalid_arg "Platform: cycle-times must be positive")
    cycle_times

let create ?(name = "platform") ~cycle_times ~link () =
  validate_cycle_times cycle_times;
  let p = Array.length cycle_times in
  if Array.length link <> p then invalid_arg "Platform: link matrix not square";
  Array.iteri
    (fun i row ->
      if Array.length row <> p then invalid_arg "Platform: link matrix not square";
      Array.iteri
        (fun j c ->
          if i = j && c <> 0. then
            invalid_arg "Platform: link diagonal must be zero";
          if c < 0. || Float.is_nan c then
            invalid_arg "Platform: negative link cost")
        row)
    link;
  let direct = Array.map Array.copy link in
  let next_hop =
    Array.init p (fun i -> Array.init p (fun j -> if i = j then -1 else j))
  in
  make ~name ~cycle_times:(Array.copy cycle_times)
    ~route_cost:(Array.map Array.copy link) ~direct ~next_hop

let fully_connected ?(name = "fully-connected") ~cycle_times ~link_cost () =
  let p = Array.length cycle_times in
  let link =
    Array.init p (fun i -> Array.init p (fun j -> if i = j then 0. else link_cost))
  in
  create ~name ~cycle_times ~link ()

let homogeneous ~p ~link_cost =
  if p < 1 then invalid_arg "Platform.homogeneous: p < 1";
  fully_connected ~name:"homogeneous" ~cycle_times:(Array.make p 1.) ~link_cost ()

let paper_platform () =
  let cycle_times =
    Array.concat [ Array.make 5 6.; Array.make 3 10.; Array.make 2 15. ]
  in
  fully_connected ~name:"paper-10" ~cycle_times ~link_cost:1. ()

let with_topology ?(name = "topology") ~cycle_times ~links () =
  validate_cycle_times cycle_times;
  let p = Array.length cycle_times in
  let inf = Float.infinity in
  let direct = Array.init p (fun _ -> Array.make p inf) in
  for i = 0 to p - 1 do
    direct.(i).(i) <- 0.
  done;
  List.iter
    (fun (i, j, c) ->
      if i < 0 || i >= p || j < 0 || j >= p || i = j then
        invalid_arg "Platform.with_topology: bad link endpoints";
      if c < 0. || Float.is_nan c then
        invalid_arg "Platform.with_topology: negative link cost";
      direct.(i).(j) <- min direct.(i).(j) c;
      direct.(j).(i) <- min direct.(j).(i) c)
    links;
  (* Floyd-Warshall for cheapest routes and first hops. *)
  let cost = Array.map Array.copy direct in
  let next_hop =
    Array.init p (fun i ->
        Array.init p (fun j ->
            if i = j then -1 else if direct.(i).(j) < inf then j else -2))
  in
  for k = 0 to p - 1 do
    for i = 0 to p - 1 do
      for j = 0 to p - 1 do
        if cost.(i).(k) +. cost.(k).(j) < cost.(i).(j) then begin
          cost.(i).(j) <- cost.(i).(k) +. cost.(k).(j);
          next_hop.(i).(j) <- next_hop.(i).(k)
        end
      done
    done
  done;
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      if i <> j && cost.(i).(j) = inf then
        invalid_arg "Platform.with_topology: disconnected interconnect"
    done
  done;
  make ~name ~cycle_times:(Array.copy cycle_times) ~route_cost:cost ~direct
    ~next_hop

let ring ~cycle_times ~link_cost () =
  let p = Array.length cycle_times in
  if p < 2 then invalid_arg "Platform.ring: need at least 2 processors";
  let links = List.init p (fun i -> (i, (i + 1) mod p, link_cost)) in
  with_topology ~name:"ring" ~cycle_times ~links ()

let star ~cycle_times ~spoke_cost () =
  let p = Array.length cycle_times in
  if p < 2 then invalid_arg "Platform.star: need at least 2 processors";
  let links = List.init (p - 1) (fun i -> (0, i + 1, spoke_cost)) in
  with_topology ~name:"star" ~cycle_times ~links ()

let grid2d ~rows ~cols ~cycle_time ~link_cost () =
  if rows < 1 || cols < 1 then invalid_arg "Platform.grid2d: empty grid";
  let p = rows * cols in
  let id r c = (r * cols) + c in
  let links = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then links := (id r c, id r (c + 1), link_cost) :: !links;
      if r + 1 < rows then links := (id r c, id (r + 1) c, link_cost) :: !links
    done
  done;
  if p = 1 then fully_connected ~name:"grid2d" ~cycle_times:[| cycle_time |] ~link_cost ()
  else
    with_topology ~name:"grid2d" ~cycle_times:(Array.make p cycle_time)
      ~links:!links ()

let random_heterogeneous rng ~p ~min_cycle ~max_cycle ~link_cost =
  if p < 1 then invalid_arg "Platform.random_heterogeneous: p < 1";
  if min_cycle < 1 || max_cycle < min_cycle then
    invalid_arg "Platform.random_heterogeneous: bad cycle-time range";
  let cycle_times =
    Array.init p (fun _ ->
        float_of_int (Prelude.Rng.int_in rng min_cycle max_cycle))
  in
  fully_connected ~name:"random-heterogeneous" ~cycle_times ~link_cost ()

let name t = t.name
let p t = Array.length t.cycle_times
let cycle_time t i = t.cycle_times.(i)
let cycle_times t = Array.copy t.cycle_times
let link t ~src ~dst = t.route_cost.(src).(dst)

let route t ~src ~dst =
  if src = dst then []
  else begin
    let rec follow q acc =
      if q = dst then List.rev acc
      else begin
        let hop = t.next_hop.(q).(dst) in
        follow hop ((q, hop) :: acc)
      end
    in
    follow src []
  end

let next_hop t ~src ~dst = t.next_hop.(src).(dst)

let[@inline] hop_cost t ~src ~dst =
  let c = t.direct.(src).(dst) in
  if c = Float.infinity then invalid_arg "Platform.hop_cost: no direct link";
  c

let min_cycle_time t = Array.fold_left min t.cycle_times.(0) t.cycle_times

let aggregate_speed t = t.aggregate_speed
let balanced_fraction t i = 1. /. cycle_time t i /. t.aggregate_speed
let avg_link_cost t = t.avg_link_cost
let avg_execution_time t w = float_of_int (p t) *. w /. t.aggregate_speed
let speedup_bound t = min_cycle_time t *. t.aggregate_speed

let description_fail line_no fmt =
  Printf.ksprintf
    (fun msg ->
      invalid_arg (Printf.sprintf "Platform.of_description: line %d: %s" line_no msg))
    fmt

let description_tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let of_description text =
  let name = ref "platform" in
  let cycle_times = ref None in
  let uniform = ref None in
  let links = ref [] in
  let rows = ref [] in
  let parse_float line_no what s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> description_fail line_no "bad %s %S" what s
  in
  let parse_int line_no what s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> description_fail line_no "bad %s %S" what s
  in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      match description_tokens line with
      | [] -> ()
      | [ "platform"; n ] -> name := n
      | "cycle-times" :: cts ->
          if cts = [] then description_fail line_no "empty cycle-times";
          cycle_times :=
            Some (Array.of_list (List.map (parse_float line_no "cycle-time") cts))
      | [ "link-cost"; c ] -> uniform := Some (parse_float line_no "link cost" c)
      | [ "link"; a; b; c ] ->
          links :=
            ( parse_int line_no "link endpoint" a,
              parse_int line_no "link endpoint" b,
              parse_float line_no "link cost" c )
            :: !links
      | "row" :: cells ->
          rows := Array.of_list (List.map (parse_float line_no "matrix cell") cells) :: !rows
      | tok :: _ -> description_fail line_no "unknown directive %S" tok)
    (String.split_on_char '\n' text);
  let cycle_times =
    match !cycle_times with
    | Some cts -> cts
    | None -> invalid_arg "Platform.of_description: missing cycle-times"
  in
  match (!uniform, !links, List.rev !rows) with
  | Some c, [], [] -> fully_connected ~name:!name ~cycle_times ~link_cost:c ()
  | None, (_ :: _ as links), [] -> with_topology ~name:!name ~cycle_times ~links ()
  | None, [], (_ :: _ as rows) ->
      create ~name:!name ~cycle_times ~link:(Array.of_list rows) ()
  | None, [], [] -> invalid_arg "Platform.of_description: missing interconnect"
  | _ ->
      invalid_arg
        "Platform.of_description: give exactly one of link-cost, link lines, \
         or row lines"

let to_description t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "platform %s\n" t.name);
  Buffer.add_string buf "cycle-times";
  Array.iter (fun ct -> Buffer.add_string buf (Printf.sprintf " %.17g" ct)) t.cycle_times;
  Buffer.add_char buf '\n';
  (* The route-cost matrix round-trips exactly: re-parsing yields the same
     pairwise costs with single-hop routes, which is behaviourally
     equivalent for fully-connected platforms and a faithful flattening of
     routed ones. *)
  Array.iter
    (fun row ->
      Buffer.add_string buf "row";
      Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %.17g" c)) row;
      Buffer.add_char buf '\n')
    t.route_cost;
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>platform %S: %d processors@ cycle-times: %a@]" t.name
    (p t)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
       Format.pp_print_float)
    (Array.to_list t.cycle_times)
