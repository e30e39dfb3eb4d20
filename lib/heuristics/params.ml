type scan = Scan_zero_comm | Scan_one_comm

type t = {
  model : Commmodel.Comm_model.t;
  policy : Engine.policy;
  averaging : Ranking.averaging;
  b : int option;
  scan : scan;
  reschedule : bool;
  candidates : int list option;
  dup_limit : int;
}

let default =
  {
    model = Commmodel.Comm_model.one_port;
    policy = Engine.Insertion;
    averaging = Ranking.Balanced;
    b = None;
    scan = Scan_zero_comm;
    reschedule = false;
    candidates = None;
    dup_limit = 0;
  }

let make ?(model = default.model) ?(policy = default.policy)
    ?(averaging = default.averaging) ?b ?(scan = default.scan)
    ?(reschedule = default.reschedule) ?candidates
    ?(dup_limit = default.dup_limit) () =
  if dup_limit < 0 then invalid_arg "Params.make: dup_limit < 0";
  {
    model;
    policy;
    averaging;
    b;
    scan;
    reschedule;
    candidates;
    dup_limit;
  }

let of_model model = { default with model }
let with_model t model = { t with model }
let with_policy t policy = { t with policy }
let with_averaging t averaging = { t with averaging }
let with_b t b = { t with b }
let with_scan t scan = { t with scan }
let with_reschedule t reschedule = { t with reschedule }

let with_dup_limit t dup_limit =
  if dup_limit < 0 then invalid_arg "Params.with_dup_limit: dup_limit < 0";
  { t with dup_limit }

let to_string t =
  String.concat ","
    (List.concat
       [
         (if Commmodel.Comm_model.equal t.model default.model then []
          else [ Commmodel.Comm_model.name t.model ]);
         (match t.policy with Engine.Insertion -> [] | Engine.Append -> [ "append" ]);
         (match t.averaging with
         | Ranking.Balanced -> []
         | Ranking.Arithmetic -> [ "avg=arith" ]
         | Ranking.Optimistic -> [ "avg=opt" ]);
         (match t.b with Some b -> [ Printf.sprintf "b=%d" b ] | None -> []);
         (match t.scan with Scan_zero_comm -> [] | Scan_one_comm -> [ "scan=1comm" ]);
         (if t.reschedule then [ "resched" ] else []);
         (if t.dup_limit = 0 then []
          else [ Printf.sprintf "dup=%d" t.dup_limit ]);
       ])
