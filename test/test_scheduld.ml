(* scheduld protocol + daemon-core tests, all in-memory over the pure
   loopback (no sockets):

   - qcheck round-trips: Wire parse ∘ print = id on arbitrary values
     (including raw-byte strings), Proto request/response round-trips
     covering every constructor, and generative fuzz — random byte junk
     and well-formed-but-wrong JSON must each produce exactly one
     structured reply and leave the daemon alive;
   - offline equivalence: a submission over the loopback fingerprints
     bit-identical to calling the registry scheduler directly, for every
     registry heuristic x one-port + macro-dataflow;
   - concurrency determinism: a fixed multi-client job mix produces a
     byte-identical transcript and identical merged obs counters at
     --jobs 1, 2 and 4 (the one pool's contract, same style as
     test_pool/test_scale);
   - admission control: shedding, queue-full, budget, cancel, drain,
     watch, deadline misses and inline-DAG submissions. *)

module O = Onesched
module Wire = O.Scheduld_wire
module P = O.Scheduld_proto
open Util

(* ---------------- generators ---------------- *)

let byte_string =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 16))

let finite_float =
  QCheck2.Gen.(map (fun f -> if Float.is_finite f then f else 0.) float)

let wire_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Wire.Null;
                 map (fun b -> Wire.Bool b) bool;
                 map (fun f -> Wire.Num f) finite_float;
                 map (fun s -> Wire.Str s) byte_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map (fun l -> Wire.Arr l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map (fun l -> Wire.Obj l)
                     (list_size (int_bound 4)
                        (pair byte_string (self (n / 2)))) );
               ]))

let opt_gen g = QCheck2.Gen.(oneof [ return None; map Option.some g ])

let spec_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> P.Testbed s) byte_string;
        map (fun s -> P.Inline s) byte_string;
      ])

let submit_gen =
  QCheck2.Gen.(
    let* spec = spec_gen in
    let* heuristic = opt_gen byte_string in
    let* model = opt_gen byte_string in
    let* priority = int_range (-4) 9 in
    let* deadline = opt_gen finite_float in
    let* placements = bool in
    return { P.spec; heuristic; model; priority; deadline; placements })

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> P.Submit s) submit_gen;
        map (fun id -> P.Status id) (opt_gen nat);
        map (fun id -> P.Cancel id) nat;
        return P.Watch;
        return P.Drain;
        return P.Stats;
        return P.Ping;
      ])

let error_code_gen =
  QCheck2.Gen.oneofl
    [ P.Parse; P.Bad_request; P.Unknown_id; P.Draining; P.Queue_full; P.Budget ]

let job_state_gen =
  QCheck2.Gen.oneofl
    [
      P.Queued; P.Placed_state; P.Done_state; P.Cancelled; P.Shed_state;
      P.Failed_state;
    ]

let placement_row_gen =
  QCheck2.Gen.(
    let* task = nat in
    let* proc = nat in
    let* start = finite_float in
    let* finish = finite_float in
    return { P.task; proc; start; finish })

let job_view_gen =
  QCheck2.Gen.(
    let* id = nat in
    let* state = job_state_gen in
    let* spec = byte_string in
    let* priority = int_range (-4) 9 in
    let* makespan = opt_gen finite_float in
    return { P.id; state; spec; priority; makespan })

let stats_view_gen =
  QCheck2.Gen.(
    let* requests = nat in
    let* submitted = nat in
    let* completed = nat in
    let* cancelled = nat in
    let* shed = nat in
    let* failed = nat in
    let* errors = nat in
    let* batches = nat in
    let* queue_depth = nat in
    let* queue_peak = nat in
    let* clients = nat in
    let* p50_ms = opt_gen finite_float in
    let* p99_ms = opt_gen finite_float in
    return
      {
        P.requests; submitted; completed; cancelled; shed; failed; errors;
        batches; queue_depth; queue_peak; clients; p50_ms; p99_ms;
      })

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        (let* id = nat in
         let* queued = nat in
         return (P.Accepted { id; queued }));
        (let* id = nat in
         let* makespan = finite_float in
         let* tasks = nat in
         let* valid = bool in
         let* fingerprint = byte_string in
         let* batch = nat in
         let* placements =
           opt_gen (list_size (int_bound 4) placement_row_gen)
         in
         return
           (P.Placed
              { id; makespan; tasks; valid; fingerprint; batch; placements }));
        (let* id = nat in
         let* makespan = finite_float in
         let* missed = bool in
         return (P.Done { id; makespan; missed }));
        (let* id = nat in
         let* msg = byte_string in
         return (P.Failed { id; msg }));
        (let* id = nat in
         let* by = nat in
         return (P.Shed { id; by }));
        map (fun id -> P.Cancelled_reply { id }) nat;
        map (fun jobs -> P.Status_reply jobs)
          (list_size (int_bound 4) job_view_gen);
        map (fun s -> P.Stats_reply s) stats_view_gen;
        map (fun pending -> P.Draining_reply { pending }) nat;
        return P.Watching;
        return P.Bye;
        return P.Pong;
        (let* code = error_code_gen in
         let* msg = byte_string in
         return (P.Error { code; msg }));
      ])

(* ---------------- loopback helpers ---------------- *)

let plat = lazy (O.Platform.paper_platform ())

let mk ?(config = O.Scheduld.default_config) () =
  O.Scheduld.create ~config ~clock:(fun () -> 0.) (Lazy.force plat)

let req core ~client r = O.Scheduld.input core ~client (P.print_request r)

let submit ?heuristic ?model ?(priority = 0) ?deadline ?(placements = false)
    core ~client spec =
  req core ~client
    (P.Submit
       { spec = P.Testbed spec; heuristic; model; priority; deadline;
         placements })

let replies core =
  List.map
    (fun (cid, line) ->
      match P.response_of_line line with
      | Ok r -> (cid, r)
      | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg)
    (O.Scheduld.take_outputs core)

let flush_all core =
  while O.Scheduld.pending core > 0 do
    ignore (O.Scheduld.flush core)
  done

(* ---------------- round-trip properties ---------------- *)

let wire_roundtrip =
  qtest ~count:500 "wire: parse (print v) = Ok v" wire_gen (fun v ->
      Wire.parse (Wire.print v) = Ok v)

let wire_one_line =
  qtest ~count:500 "wire: print emits a single line" wire_gen (fun v ->
      not (String.contains (Wire.print v) '\n'))

let request_roundtrip =
  qtest ~count:500 "proto: request round-trips" request_gen (fun r ->
      P.request_of_line (P.print_request r) = Ok r)

let response_roundtrip =
  qtest ~count:500 "proto: response round-trips" response_gen (fun r ->
      P.response_of_line (P.print_response r) = Ok r)

let parse_total =
  qtest ~count:500 "proto: arbitrary bytes never raise"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64))
    (fun junk ->
      (match P.request_of_line junk with Ok _ | Error _ -> true)
      && match P.response_of_line junk with Ok _ | Error _ -> true)

(* ---------------- fuzz: the daemon survives junk ---------------- *)

let fuzz_survives name gen render =
  qtest ~count:300 name gen (fun junk ->
      let core = mk () in
      let client = O.Scheduld.connect core in
      O.Scheduld.input core ~client (render junk);
      let out = replies core in
      (* exactly one structured reply, and the daemon still answers *)
      let replied_once = List.length out = 1 in
      req core ~client P.Ping;
      let alive =
        match replies core with [ (_, P.Pong) ] -> true | _ -> false
      in
      O.Scheduld.shutdown core;
      replied_once && alive && not (O.Scheduld.stopped core))

let fuzz_bytes =
  fuzz_survives "fuzz: random bytes get a structured error"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64))
    Fun.id

let fuzz_json =
  fuzz_survives "fuzz: well-formed JSON junk gets a structured reply" wire_gen
    Wire.print

let junk_is_parse_error () =
  let core = mk () in
  let client = O.Scheduld.connect core in
  O.Scheduld.input core ~client "]]not json[[";
  (match replies core with
  | [ (_, P.Error { code = P.Parse; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a parse error reply");
  O.Scheduld.input core ~client {|{"op":"warp"}|};
  (match replies core with
  | [ (_, P.Error { code = P.Parse; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a parse error for an unknown op");
  submit core ~client "not-a-testbed:5";
  (match replies core with
  | [ (_, P.Error { code = P.Bad_request; _ }) ] -> ()
  | _ -> Alcotest.fail "expected bad-request for an unknown testbed");
  let s = O.Scheduld.stats core in
  check_int "requests counted" 3 s.P.requests;
  check_int "errors counted" 3 s.P.errors;
  O.Scheduld.shutdown core

(* ---------------- offline equivalence ---------------- *)

let offline_equivalence () =
  let models = [ O.Comm_model.one_port; O.Comm_model.macro_dataflow ] in
  let suite = O.Suite.find "lu" in
  let n = max 12 suite.O.Suite.min_n in
  let g = suite.O.Suite.build ~n ~ccr:1. in
  List.iter
    (fun (entry : O.Registry.entry) ->
      List.iter
        (fun model ->
          let direct =
            O.Export.fingerprint
              (entry.O.Registry.scheduler
                 (O.Params.of_model model)
                 (Lazy.force plat) g)
          in
          let core = mk () in
          let client = O.Scheduld.connect core in
          submit core ~client
            (Printf.sprintf "lu:%d" n)
            ~heuristic:entry.O.Registry.name
            ~model:(O.Comm_model.name model);
          flush_all core;
          let served =
            List.find_map
              (function
                | _, P.Placed { fingerprint; valid; _ } ->
                    Alcotest.(check bool)
                      (entry.O.Registry.name ^ " valid over the wire")
                      true valid;
                    Some fingerprint
                | _ -> None)
              (replies core)
          in
          O.Scheduld.shutdown core;
          Alcotest.(check (option string))
            (Printf.sprintf "%s/%s fingerprint" entry.O.Registry.name
               (O.Comm_model.name model))
            (Some direct) served)
        models)
    O.Registry.all

(* ---------------- concurrency determinism ---------------- *)

let job_mix =
  [ "lu:10"; "stencil:9"; "layered:4:6:30"; "lu:8:0.5"; "doolittle:8";
    "laplace:9"; "fork-join:10"; "layered:3:5:20:2" ]

let transcript ~jobs =
  let config =
    { O.Scheduld.default_config with O.Scheduld.jobs; max_batch = 4 }
  in
  let core = mk ~config () in
  O.Obs_counters.enable ();
  O.Obs_counters.reset ();
  let clients = List.init 4 (fun _ -> O.Scheduld.connect core) in
  (* deterministic interleaving: client k submits mix elements k, k+4, … *)
  List.iteri
    (fun i spec ->
      let client = List.nth clients (i mod 4) in
      submit core ~client spec)
    job_mix;
  flush_all core;
  let lines =
    List.map
      (fun (cid, line) -> Printf.sprintf "%d %s" cid line)
      (O.Scheduld.take_outputs core)
  in
  let counters = O.Obs_counters.snapshot () in
  O.Obs_counters.disable ();
  O.Scheduld.shutdown core;
  (String.concat "\n" lines, counters)

let concurrency_determinism () =
  let base_t, base_c = transcript ~jobs:1 in
  Util.check_bool "baseline transcript mentions every job" true
    (List.for_all
       (fun i -> Util.contains base_t (Printf.sprintf "\"id\":%d" i))
       (List.init (List.length job_mix) Fun.id));
  List.iter
    (fun jobs ->
      let t, c = transcript ~jobs in
      Alcotest.(check string)
        (Printf.sprintf "transcript identical at jobs=%d" jobs)
        base_t t;
      Util.check_bool
        (Printf.sprintf "merged counters identical at jobs=%d" jobs)
        true (c = base_c))
    [ 2; 4 ]

(* Offered load on the real clock: [c] clients each submit four
   48-task layered jobs, and the backlog drains in coalesced batches of
   up to [c] jobs priced on four domains.  Every job is placed with a
   valid schedule, and the stats reply carries a positive p99 service
   latency. *)
let offered_load () =
  List.iter
    (fun c ->
      let per_client = 4 in
      let config =
        {
          O.Scheduld.default_config with
          O.Scheduld.jobs = 4;
          max_batch = c;
          queue_cap = c * per_client;
        }
      in
      let core = O.Scheduld.create ~config (Lazy.force plat) in
      let clients = List.init c (fun _ -> O.Scheduld.connect core) in
      for _ = 1 to per_client do
        List.iter (fun client -> submit core ~client "layered:6:8:48") clients
      done;
      flush_all core;
      let placed =
        List.filter_map
          (function _, P.Placed { valid; _ } -> Some valid | _ -> None)
          (replies core)
      in
      check_int
        (Printf.sprintf "%d clients: every job placed" c)
        (c * per_client) (List.length placed);
      check_bool
        (Printf.sprintf "%d clients: every schedule valid" c)
        true
        (List.for_all Fun.id placed);
      (match (O.Scheduld.stats core).P.p99_ms with
      | Some x when x > 0. -> ()
      | Some x -> Alcotest.failf "%d clients: p99 %g ms is not positive" c x
      | None -> Alcotest.failf "%d clients: no p99 latency" c);
      O.Scheduld.shutdown core)
    [ 10; 50 ]

(* ---------------- admission control and lifecycle ---------------- *)

let shedding () =
  let config = { O.Scheduld.default_config with O.Scheduld.queue_cap = 2 } in
  let core = mk ~config () in
  let client = O.Scheduld.connect core in
  submit core ~client "lu:8";
  submit core ~client "lu:9";
  ignore (replies core);
  (* a higher-priority arrival sheds the newest lowest-priority job *)
  submit core ~client "lu:10" ~priority:5;
  (match replies core with
  | [ (_, P.Shed { id = 1; by = 2 }); (_, P.Accepted { id = 2; _ }) ] -> ()
  | rs ->
      Alcotest.failf "expected shed(1 by 2) + accepted(2), got %d replies"
        (List.length rs));
  (* equal priority has nothing to shed: the backlog refuses *)
  submit core ~client "lu:11";
  (match replies core with
  | [ (_, P.Error { code = P.Queue_full; _ }) ] -> ()
  | _ -> Alcotest.fail "expected queue-full");
  flush_all core;
  let s = O.Scheduld.stats core in
  check_int "completed" 2 s.P.completed;
  check_int "shed" 1 s.P.shed;
  O.Scheduld.shutdown core

let budget () =
  let config = { O.Scheduld.default_config with O.Scheduld.replan_budget = 1 } in
  let core = mk ~config () in
  let client = O.Scheduld.connect core in
  submit core ~client "lu:8";
  flush_all core;
  ignore (replies core);
  submit core ~client "lu:8";
  (match replies core with
  | [ (_, P.Error { code = P.Budget; _ }) ] -> ()
  | _ -> Alcotest.fail "expected budget error");
  O.Scheduld.shutdown core

let cancel () =
  let core = mk () in
  let client = O.Scheduld.connect core in
  submit core ~client "lu:8";
  ignore (replies core);
  req core ~client (P.Cancel 0);
  (match replies core with
  | [ (_, P.Cancelled_reply { id = 0 }) ] -> ()
  | _ -> Alcotest.fail "expected cancelled");
  req core ~client (P.Cancel 0);
  (match replies core with
  | [ (_, P.Error { code = P.Bad_request; _ }) ] -> ()
  | _ -> Alcotest.fail "cancelling a cancelled job is a bad request");
  req core ~client (P.Cancel 99);
  (match replies core with
  | [ (_, P.Error { code = P.Unknown_id; _ }) ] -> ()
  | _ -> Alcotest.fail "expected unknown-id");
  check_int "nothing left to flush" 0 (O.Scheduld.flush core);
  req core ~client (P.Status None);
  (match replies core with
  | [ (_, P.Status_reply [ { P.state = P.Cancelled; _ } ]) ] -> ()
  | _ -> Alcotest.fail "status shows the cancelled job");
  O.Scheduld.shutdown core

let drain_lifecycle () =
  let core = mk () in
  let a = O.Scheduld.connect core in
  let b = O.Scheduld.connect core in
  submit core ~client:a "lu:8";
  req core ~client:b P.Drain;
  (match replies core with
  | [ (_, P.Accepted _); (1, P.Draining_reply { pending = 1 }) ] -> ()
  | _ -> Alcotest.fail "expected accepted then draining(1)");
  submit core ~client:b "lu:8";
  (match replies core with
  | [ (_, P.Error { code = P.Draining; _ }) ] -> ()
  | _ -> Alcotest.fail "submissions while draining are refused");
  flush_all core;
  Util.check_bool "stopped after draining the backlog" true
    (O.Scheduld.stopped core);
  let out = replies core in
  let byes =
    List.filter (function _, P.Bye -> true | _ -> false) out
  in
  check_int "both clients get bye" 2 (List.length byes);
  O.Scheduld.shutdown core

let watch_events () =
  let core = mk () in
  let watcher = O.Scheduld.connect core in
  let owner = O.Scheduld.connect core in
  req core ~client:watcher P.Watch;
  submit core ~client:owner "lu:8";
  flush_all core;
  let out = replies core in
  let placed_for cid =
    List.exists
      (function c, P.Placed _ when c = cid -> true | _ -> false)
      out
  in
  Util.check_bool "owner sees placed" true (placed_for owner);
  Util.check_bool "watcher sees placed" true (placed_for watcher);
  O.Scheduld.shutdown core

let deadline_missed () =
  let core = mk () in
  let client = O.Scheduld.connect core in
  submit core ~client "lu:8" ~deadline:0.5;
  flush_all core;
  (match
     List.find_map
       (function _, P.Done { missed; _ } -> Some missed | _ -> None)
       (replies core)
   with
  | Some true -> ()
  | _ -> Alcotest.fail "a 0.5-unit deadline on lu:8 must be missed");
  O.Scheduld.shutdown core

let inline_graph () =
  let g = build_graph (7, 1, 10) in
  let text = O.Graph_io.to_string g in
  let core = mk () in
  let client = O.Scheduld.connect core in
  req core ~client
    (P.Submit
       {
         spec = P.Inline text;
         heuristic = None;
         model = None;
         priority = 0;
         deadline = None;
         placements = true;
       });
  flush_all core;
  let direct =
    O.Export.fingerprint
      ((O.Registry.find (O.Scheduld.default_config.O.Scheduld.heuristic))
         .O.Registry.scheduler O.Params.default (Lazy.force plat) g)
  in
  (match
     List.find_map
       (function
         | _, P.Placed { fingerprint; valid; placements; _ } ->
             Some (fingerprint, valid, placements)
         | _ -> None)
       (replies core)
   with
  | Some (fp, valid, Some rows) ->
      Alcotest.(check string) "inline fingerprint matches direct" direct fp;
      Util.check_bool "inline schedule valid" true valid;
      check_int "one placement row per task" (O.Graph.n_tasks g)
        (List.length rows)
  | _ -> Alcotest.fail "expected a placed event with placements");
  O.Scheduld.shutdown core

(* A finished job keeps only what [status] reports: 1 000 inline
   submissions, each flushed and its replies taken, grow the core by a
   bounded number of words per job, not by each job's graph. *)
let finished_jobs_release_graphs () =
  let core = mk () in
  let client = O.Scheduld.connect core in
  let text = O.Graph_io.to_string (build_graph (11, 1, 40)) in
  let one () =
    req core ~client
      (P.Submit
         { spec = P.Inline text; heuristic = None; model = None;
           priority = 0; deadline = None; placements = false });
    flush_all core;
    ignore (O.Scheduld.take_outputs core)
  in
  one ();
  let w0 = Obj.reachable_words (Obj.repr core) in
  let jobs = 999 in
  for _ = 1 to jobs do
    one ()
  done;
  let w1 = Obj.reachable_words (Obj.repr core) in
  let per_job = float_of_int (w1 - w0) /. float_of_int jobs in
  if per_job >= 100. then
    Alcotest.failf "the core grew by %.1f words per finished job" per_job;
  req core ~client (P.Status (Some 0));
  (match replies core with
  | [ (_, P.Status_reply [ { id = 0; state = P.Done_state; makespan = Some m; _ } ]) ]
    when m > 0. ->
      ()
  | _ -> Alcotest.fail "status of the first job lost its state or makespan");
  O.Scheduld.shutdown core

let server_counters () =
  let core = mk () in
  O.Obs_counters.enable ();
  O.Obs_counters.reset ();
  let client = O.Scheduld.connect core in
  submit core ~client "lu:8";
  submit core ~client "lu:9";
  req core ~client P.Ping;
  flush_all core;
  let c = O.Obs_counters.snapshot () in
  O.Obs_counters.disable ();
  check_int "requests" 3 O.Obs_counters.(get c requests);
  check_int "queued jobs" 2 O.Obs_counters.(get c queued_jobs);
  check_int "batched replans" 1 O.Obs_counters.(get c batched_replans);
  Util.check_bool "pp shows the scheduld block" true
    (Util.contains
       (Format.asprintf "%a" O.Obs_counters.pp c)
       "batched replans:  1");
  O.Scheduld.shutdown core

(* ---------------- the transport shell over a real socket ---------------- *)

(* A daemon on a Unix socket in the working directory, served from a
   second domain; [f] gets the socket path.  The daemon is drained and
   joined afterwards, and the signal handlers [serve] installs are put
   back. *)
let with_daemon config f =
  let path = Printf.sprintf "shell-%d.sock" (Unix.getpid ()) in
  let sigint = Sys.signal Sys.sigint Sys.Signal_default in
  let sigterm = Sys.signal Sys.sigterm Sys.Signal_default in
  let listening = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        O.Scheduld.serve ~config
          ~ready:(fun () -> Atomic.set listening true)
          (O.Scheduld.Unix_path path) (Lazy.force plat))
  in
  let give_up = Unix.gettimeofday () +. 10. in
  while not (Atomic.get listening) do
    if Unix.gettimeofday () > give_up then
      Alcotest.fail "daemon did not start listening";
    Unix.sleepf 0.001
  done;
  let stop () =
    let c = O.Scheduld_client.connect (O.Scheduld.Unix_path path) in
    O.Scheduld_client.send c P.Drain;
    (try
       while O.Scheduld_client.recv c <> P.Bye do
         ()
       done
     with End_of_file -> ());
    O.Scheduld_client.close c;
    ignore (Domain.join daemon);
    Sys.set_signal Sys.sigint sigint;
    Sys.set_signal Sys.sigterm sigterm
  in
  Fun.protect ~finally:stop (fun () -> f path)

(* A bare socket client whose reads give up at a deadline, so a daemon
   that holds replies back fails the test instead of stalling it. *)
type raw = { fd : Unix.file_descr; mutable inbox : string }

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbox = "" }

let raw_send c r =
  let line = P.print_request r ^ "\n" in
  let off = ref 0 in
  while !off < String.length line do
    off := !off + Unix.write_substring c.fd line !off (String.length line - !off)
  done

let raw_recv c ~deadline =
  let chunk = Bytes.create 65536 in
  let rec next () =
    match String.index_opt c.inbox '\n' with
    | Some i ->
        let line = String.sub c.inbox 0 i in
        c.inbox <- String.sub c.inbox (i + 1) (String.length c.inbox - i - 1);
        Some
          (match P.response_of_line line with
          | Ok r -> r
          | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else
          match Unix.select [ c.fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | k ->
                  c.inbox <- c.inbox ^ Bytes.sub_string chunk 0 k;
                  next ()))
  in
  next ()

(* The job's [Placed] fingerprint, or [None] when it does not arrive
   before [deadline]. *)
let rec placed_fingerprint c ~deadline =
  match raw_recv c ~deadline with
  | Some (P.Placed { fingerprint; valid; _ }) ->
      Util.check_bool "valid over the socket" true valid;
      Some fingerprint
  | Some (P.Failed { msg; _ } | P.Error { msg; _ }) ->
      Alcotest.failf "submission refused: %s" msg
  | Some _ -> placed_fingerprint c ~deadline
  | None -> None

let inline_submit g =
  P.Submit
    { spec = P.Inline (O.Graph_io.to_string g); heuristic = None;
      model = None; priority = 0; deadline = None; placements = false }

let submit_inline c g = raw_send c (inline_submit g)

let offline_ilha g =
  O.Export.fingerprint
    ((O.Registry.find "ilha").O.Registry.scheduler O.Params.default
       (Lazy.force plat) g)

(* A window far longer than any test: a batch that waits for it fails. *)
let long_window =
  { O.Scheduld.default_config with
    O.Scheduld.heuristic = "ilha"; batch_window = 60. }

let lone_submission_not_held () =
  with_daemon long_window (fun path ->
      let c = raw_connect path in
      let g = build_graph (11, 1, 40) in
      let t0 = Unix.gettimeofday () in
      submit_inline c g;
      let fp = placed_fingerprint c ~deadline:(t0 +. 5.) in
      Alcotest.(check (option string))
        "placed within 5 s of a 60 s window" (Some (offline_ilha g)) fp;
      Unix.close c.fd)

let concurrent_clients () =
  with_daemon long_window (fun path ->
      let graphs = List.init 8 (fun i -> build_graph (100 + i, i mod 4, 30)) in
      let conns = List.map (fun _ -> raw_connect path) graphs in
      List.iter2 submit_inline conns graphs;
      let deadline = Unix.gettimeofday () +. 20. in
      List.iteri
        (fun i (c, g) ->
          Alcotest.(check (option string))
            (Printf.sprintf "client %d gets the offline ILHA plan" i)
            (Some (offline_ilha g)) (placed_fingerprint c ~deadline))
        (List.combine conns graphs);
      let c = List.hd conns in
      raw_send c P.Stats;
      let rec stats () =
        match raw_recv c ~deadline with
        | Some (P.Stats_reply s) -> s
        | Some _ -> stats ()
        | None -> Alcotest.fail "no stats reply"
      in
      let s = stats () in
      check_int "submitted" 8 s.P.submitted;
      Util.check_bool
        (Printf.sprintf "%d batches for %d submissions" s.P.batches
           s.P.submitted)
        true
        (s.P.batches >= 1 && s.P.batches <= s.P.submitted);
      List.iter (fun c -> Unix.close c.fd) conns)

let megabyte_line () =
  with_daemon long_window (fun path ->
      let g =
        O.Generators.layered (O.Rng.create ~seed:5) ~layers:120 ~width:60
          ~edge_prob:0.5 ~max_weight:9 ~max_data:9
      in
      let request = P.print_request (inline_submit g) in
      Util.check_bool
        (Printf.sprintf "one %d-byte line" (String.length request))
        true
        (String.length request >= 1_000_000);
      let c = raw_connect path in
      raw_send c (inline_submit g);
      let fp = placed_fingerprint c ~deadline:(Unix.gettimeofday () +. 30.) in
      Alcotest.(check (option string))
        "placed with the offline fingerprint" (Some (offline_ilha g)) fp;
      Unix.close c.fd)

let suite =
  [
    wire_roundtrip;
    wire_one_line;
    request_roundtrip;
    response_roundtrip;
    parse_total;
    fuzz_bytes;
    fuzz_json;
    Alcotest.test_case "fuzz: junk classifies as parse/bad-request" `Quick
      junk_is_parse_error;
    Alcotest.test_case "offline equivalence: all heuristics x 2 models" `Slow
      offline_equivalence;
    Alcotest.test_case "concurrency determinism at jobs 1/2/4" `Slow
      concurrency_determinism;
    Alcotest.test_case "admission: priority shedding + queue-full" `Quick
      shedding;
    Alcotest.test_case "admission: replan budget" `Quick budget;
    Alcotest.test_case "cancel lifecycle" `Quick cancel;
    Alcotest.test_case "drain broadcasts bye and stops" `Quick drain_lifecycle;
    Alcotest.test_case "watchers receive every job's events" `Quick
      watch_events;
    Alcotest.test_case "deadline misses are reported" `Quick deadline_missed;
    Alcotest.test_case "inline DAG submission" `Quick inline_graph;
    Alcotest.test_case "scheduld obs counters" `Quick server_counters;
    Alcotest.test_case "finished jobs keep only their status" `Quick
      finished_jobs_release_graphs;
    Alcotest.test_case "shell: a lone submission is not held for the window"
      `Quick lone_submission_not_held;
    Alcotest.test_case "shell: eight concurrent clients get offline plans"
      `Quick concurrent_clients;
    Alcotest.test_case "shell: a 1 MB submission line" `Quick megabyte_line;
    Alcotest.test_case "offered load: 10 and 50 clients x 4 jobs" `Quick
      offered_load;
  ]
