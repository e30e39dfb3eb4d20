type port_discipline =
  | Unlimited
  | One_port_bidirectional
  | One_port_unidirectional

type regime =
  | Port
  | Bsp of { g : float; l : float }
  | Latency_overhead of { o : float; l : float }

type t = {
  ports : port_discipline;
  overlap : bool;
  link_contention : bool;
  regime : regime;
}

let macro_dataflow =
  { ports = Unlimited; overlap = true; link_contention = false; regime = Port }

let one_port = { macro_dataflow with ports = One_port_bidirectional }
let one_port_unidirectional = { macro_dataflow with ports = One_port_unidirectional }
let link_contention = { macro_dataflow with link_contention = true }

let require_port ~what m =
  match m.regime with
  | Port -> ()
  | Bsp _ | Latency_overhead _ ->
      invalid_arg
        (Printf.sprintf "Comm_model.%s: only meaningful on port-regime models"
           what)

let no_overlap m =
  require_port ~what:"no_overlap" m;
  { m with overlap = false }

let with_link_contention m =
  require_port ~what:"with_link_contention" m;
  { m with link_contention = true }

let bsp ~g ~l =
  if g < 0. || l < 0. then invalid_arg "Comm_model.bsp: negative parameter";
  { macro_dataflow with regime = Bsp { g; l } }

let latency_overhead ~o ~l =
  if o < 0. || l < 0. then
    invalid_arg "Comm_model.latency_overhead: negative parameter";
  { one_port with regime = Latency_overhead { o; l } }

let restricts_ports m = m.ports <> Unlimited

(* Names must stay comma-free: batch CSV rows and the CI's [cut -d,]
   both split model names on commas. *)
let name m =
  match m.regime with
  | Bsp { g; l } -> Printf.sprintf "bsp:g=%g:L=%g" g l
  | Latency_overhead { o; l } -> Printf.sprintf "logp:o=%g:L=%g" o l
  | Port ->
      let base =
        match m.ports with
        | Unlimited -> "macro-dataflow"
        | One_port_bidirectional -> "one-port"
        | One_port_unidirectional -> "one-port-unidir"
      in
      let base = if m.link_contention then
          (match m.ports with Unlimited -> "link-contention" | _ -> base ^ "+links")
        else base
      in
      if m.overlap then base else base ^ "-no-overlap"

let pp fmt m = Format.pp_print_string fmt (name m)
let equal a b = a = b

let all =
  [
    macro_dataflow;
    one_port;
    one_port_unidirectional;
    link_contention;
    with_link_contention one_port;
    no_overlap one_port;
    no_overlap one_port_unidirectional;
    bsp ~g:1. ~l:5.;
    latency_overhead ~o:1. ~l:2.;
  ]

(* [hop_span] is the wall-clock span of one hop's communication event.
   BSP hops are scheduled inside an explicit superstep window, never
   priced per hop. *)
let[@inline] hop_span m ~data ~hop_cost =
  match m.regime with
  | Port -> data *. hop_cost
  | Latency_overhead { o; l } -> (2. *. o) +. (data *. hop_cost) +. l
  | Bsp _ ->
      invalid_arg "Comm_model.hop_span: BSP communications are priced per phase"

let parse_two ~head ~k1 ~k2 s =
  (* "<head>:<k1>=<float>:<k2>=<float>" -> Some (v1, v2) *)
  match String.split_on_char ':' s with
  | [ h; a; b ] when h = head -> (
      let field key part =
        match String.split_on_char '=' part with
        | [ k; v ] when k = key -> float_of_string_opt v
        | _ -> None
      in
      match (field k1 a, field k2 b) with
      | Some v1, Some v2 -> Some (v1, v2)
      | _ -> None)
  | _ -> None

let of_name s =
  match List.find_opt (fun m -> name m = s) all with
  | Some m -> Some m
  | None -> (
      match parse_two ~head:"bsp" ~k1:"g" ~k2:"L" s with
      | Some (g, l) when g >= 0. && l >= 0. -> Some (bsp ~g ~l)
      | _ -> (
          match parse_two ~head:"logp" ~k1:"o" ~k2:"L" s with
          | Some (o, l) when o >= 0. && l >= 0. -> Some (latency_overhead ~o ~l)
          | _ -> None))

let of_name s =
  match of_name s with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf
           "Comm_model.of_name: unknown model %S (valid: %s, bsp:g=<g>:L=<L>, \
            logp:o=<o>:L=<L>)"
           s
           (String.concat ", "
              (List.filter_map
                 (fun m -> match m.regime with Port -> Some (name m) | _ -> None)
                 all)))
