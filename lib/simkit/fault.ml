type t =
  | Crash of { proc : int; at : float }
  | Outage of { proc : int; from_ : float; until : float }
  | Degrade of { proc : int; factor : float }
  | Flaky of { prob : float; max_retries : int; backoff : float }
  | Rejoin of { proc : int; at : float }

(* A time that may still be a fraction of the nominal makespan. *)
type reltime = Abs of float | Frac of float

type spec =
  | S_crash of { proc : int; at : reltime }
  | S_outage of { proc : int; from_ : reltime; until : reltime }
  | S_degrade of { proc : int; factor : float }
  | S_flaky of { prob : float; max_retries : int; backoff : float }
  | S_rejoin of { proc : int; at : reltime }

let grammar =
  "crash:P@T | outage:P@T1-T2 | degrade:PxF | flaky:PROB[:RETRIES[:BACKOFF]] \
   | rejoin:P@T (times: absolute like 120, or a percentage of the nominal \
   makespan like 25%)"

let fail s reason =
  invalid_arg (Printf.sprintf "Fault.of_string: %S: %s (grammar: %s)" s reason grammar)

let parse_reltime s text =
  let n = String.length text in
  if n = 0 then fail s "empty time"
  else if text.[n - 1] = '%' then
    match float_of_string_opt (String.sub text 0 (n - 1)) with
    | Some f when f >= 0. -> Frac (f /. 100.)
    | _ -> fail s (Printf.sprintf "bad percentage %S" text)
  else
    match float_of_string_opt text with
    | Some f when f >= 0. -> Abs f
    | _ -> fail s (Printf.sprintf "bad time %S" text)

let parse_int s text =
  match int_of_string_opt text with
  | Some i when i >= 0 -> i
  | _ -> fail s (Printf.sprintf "bad processor id %S" text)

let parse_float s text =
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail s (Printf.sprintf "bad number %S" text)

let split2 s ~on text reason =
  match String.index_opt text on with
  | Some i ->
      ( String.sub text 0 i,
        String.sub text (i + 1) (String.length text - i - 1) )
  | None -> fail s reason

let of_string s =
  let s = String.trim s in
  match String.index_opt s ':' with
  | None -> fail s "missing ':'"
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "crash" ->
          let proc, at = split2 s ~on:'@' rest "expected crash:P@T" in
          S_crash { proc = parse_int s proc; at = parse_reltime s at }
      | "outage" ->
          let proc, window = split2 s ~on:'@' rest "expected outage:P@T1-T2" in
          let from_, until = split2 s ~on:'-' window "expected a T1-T2 window" in
          S_outage
            {
              proc = parse_int s proc;
              from_ = parse_reltime s from_;
              until = parse_reltime s until;
            }
      | "degrade" ->
          let proc, factor = split2 s ~on:'x' rest "expected degrade:PxF" in
          let factor = parse_float s factor in
          if factor < 1. then fail s "degradation factor must be >= 1";
          S_degrade { proc = parse_int s proc; factor }
      | "flaky" -> (
          let prob_ok p = if p < 0. || p > 1. then fail s "probability out of [0,1]" else p in
          match String.split_on_char ':' rest with
          | [ prob ] ->
              S_flaky
                { prob = prob_ok (parse_float s prob); max_retries = 3; backoff = 1. }
          | [ prob; retries ] ->
              S_flaky
                {
                  prob = prob_ok (parse_float s prob);
                  max_retries = parse_int s retries;
                  backoff = 1.;
                }
          | [ prob; retries; backoff ] ->
              let backoff = parse_float s backoff in
              if backoff < 0. then fail s "negative backoff";
              S_flaky
                {
                  prob = prob_ok (parse_float s prob);
                  max_retries = parse_int s retries;
                  backoff;
                }
          | _ -> fail s "expected flaky:PROB[:RETRIES[:BACKOFF]]")
      | "rejoin" ->
          let proc, at = split2 s ~on:'@' rest "expected rejoin:P@T" in
          S_rejoin { proc = parse_int s proc; at = parse_reltime s at }
      | _ -> fail s (Printf.sprintf "unknown fault kind %S" kind))

let reltime_to_string = function
  | Abs t -> Printf.sprintf "%g" t
  | Frac f -> Printf.sprintf "%g%%" (f *. 100.)

let spec_to_string = function
  | S_crash { proc; at } ->
      Printf.sprintf "crash:%d@%s" proc (reltime_to_string at)
  | S_outage { proc; from_; until } ->
      Printf.sprintf "outage:%d@%s-%s" proc (reltime_to_string from_)
        (reltime_to_string until)
  | S_degrade { proc; factor } -> Printf.sprintf "degrade:%dx%g" proc factor
  | S_flaky { prob; max_retries; backoff } ->
      Printf.sprintf "flaky:%g:%d:%g" prob max_retries backoff
  | S_rejoin { proc; at } ->
      Printf.sprintf "rejoin:%d@%s" proc (reltime_to_string at)

let resolve ~makespan spec =
  let time = function
    | Abs t -> t
    | Frac f ->
        if makespan <= 0. then
          invalid_arg "Fault.resolve: relative time against a non-positive makespan";
        f *. makespan
  in
  match spec with
  | S_crash { proc; at } -> Crash { proc; at = time at }
  | S_outage { proc; from_; until } ->
      let from_ = time from_ and until = time until in
      if until < from_ then invalid_arg "Fault.resolve: outage window ends before it starts";
      Outage { proc; from_; until }
  | S_degrade { proc; factor } -> Degrade { proc; factor }
  | S_flaky { prob; max_retries; backoff } -> Flaky { prob; max_retries; backoff }
  | S_rejoin { proc; at } -> Rejoin { proc; at = time at }

let crash ~proc ~at = Crash { proc; at }

let flaky ?(max_retries = 3) ?(backoff = 1.) prob =
  if prob < 0. || prob > 1. then invalid_arg "Fault.flaky: probability out of [0,1]";
  Flaky { prob; max_retries; backoff }

let validate ~p fault =
  let proc_ok q =
    if q < 0 || q >= p then
      invalid_arg
        (Printf.sprintf "Fault.validate: processor %d out of range (platform has %d)" q p)
  in
  match fault with
  | Crash { proc; at } ->
      proc_ok proc;
      if at < 0. then invalid_arg "Fault.validate: negative crash time"
  | Outage { proc; from_; until } ->
      proc_ok proc;
      if from_ < 0. || until < from_ then
        invalid_arg "Fault.validate: bad outage window"
  | Degrade { proc; factor } ->
      proc_ok proc;
      if factor < 1. then invalid_arg "Fault.validate: degradation factor < 1"
  | Flaky { prob; max_retries; backoff } ->
      if prob < 0. || prob > 1. then invalid_arg "Fault.validate: probability out of [0,1]";
      if max_retries < 0 then invalid_arg "Fault.validate: negative retry budget";
      if backoff < 0. then invalid_arg "Fault.validate: negative backoff";
      (* the i-th retry waits [backoff * 2^i]: the last must be a time *)
      if not (Float.is_finite (Float.ldexp backoff max_retries)) then
        invalid_arg "Fault.validate: backoff * 2^max_retries must be finite"
  | Rejoin { proc; at } ->
      proc_ok proc;
      if at < 0. then invalid_arg "Fault.validate: negative rejoin time"

let to_string = function
  | Crash { proc; at } -> Printf.sprintf "crash:%d@%g" proc at
  | Outage { proc; from_; until } -> Printf.sprintf "outage:%d@%g-%g" proc from_ until
  | Degrade { proc; factor } -> Printf.sprintf "degrade:%dx%g" proc factor
  | Flaky { prob; max_retries; backoff } ->
      Printf.sprintf "flaky:%g:%d:%g" prob max_retries backoff
  | Rejoin { proc; at } -> Printf.sprintf "rejoin:%d@%g" proc at

let pp fmt f = Format.pp_print_string fmt (to_string f)
