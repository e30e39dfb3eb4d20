module Counters = Obs.Counters
module Graph = Taskgraph.Graph
module Graph_io = Taskgraph.Io
module Schedule = Sched.Schedule
module Validate = Sched.Validate
module Export = Sched.Export
module Params = Heuristics.Params
module Registry = Heuristics.Registry
module Suite = Testbeds.Suite
module Event = Online.Event
module Pool = Prelude.Pool

type config = {
  params : Params.t;
  heuristic : string;
  jobs : int;
  max_batch : int;
  queue_cap : int;
  replan_budget : int;
  batch_window : float;
}

let default_config =
  {
    params = Params.default;
    heuristic = "heft";
    jobs = 1;
    max_batch = 16;
    queue_cap = 64;
    replan_budget = max_int;
    batch_window = 0.02;
  }

(* ------------------------------------------------------------------ *)
(* the pure core                                                       *)
(* ------------------------------------------------------------------ *)

(* What [status] reports of a job.  The daemon keeps one per admitted
   job for its whole life, so it holds nothing else: the graph and the
   scheduler closure live in the [job] and go with it when the job
   leaves the backlog. *)
type entry = {
  jid : int;
  jspec : string;  (** canonical display spec *)
  jpriority : int;
  mutable jstate : Proto.job_state;
  mutable jmakespan : float option;
}

(* A job in the backlog or in the batch being flushed. *)
type job = {
  entry : entry;
  owner : int;
  run : unit -> Schedule.t;  (** captures graph, params and scheduler *)
  jgraph : Graph.t;
  jdeadline : float option;
  want_placements : bool;
  submitted_at : float;
}

type client = { mutable watcher : bool; mutable gone : bool }

type t = {
  cfg : config;
  platform : Platform.t;
  clock : unit -> float;
  graphs : (string, Graph.t) Hashtbl.t;  (** warm testbed-graph cache *)
  pool : Pool.t;  (** domains for a batch flush *)
  clients : (int, client) Hashtbl.t;
  mutable next_client : int;
  mutable next_job : int;
  jobs_tbl : (int, entry) Hashtbl.t;
  mutable order : int list;  (** submission order, newest first *)
  queue : job Queue.t;  (** backlog, arrival order *)
  outbox : (int * string) Queue.t;
  mutable is_draining : bool;
  mutable is_stopped : bool;
  mutable n_requests : int;
  mutable n_errors : int;
  mutable n_batches : int;
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_cancelled : int;
  mutable n_shed : int;
  mutable n_failed : int;
  mutable queue_peak : int;
  mutable latencies_ms : float list;
}

let config t = t.cfg

let create ?(config = default_config) ?(clock = Unix.gettimeofday) platform =
  if config.jobs < 1 then invalid_arg "Scheduld.create: jobs must be >= 1";
  if config.max_batch < 1 then
    invalid_arg "Scheduld.create: max_batch must be >= 1";
  if config.queue_cap < 1 then
    invalid_arg "Scheduld.create: queue_cap must be >= 1";
  if config.batch_window < 0. then
    invalid_arg "Scheduld.create: negative batch_window";
  ignore (Registry.find config.heuristic);
  {
    cfg = config;
    platform;
    clock;
    graphs = Hashtbl.create 16;
    pool = Pool.create ~jobs:config.jobs;
    clients = Hashtbl.create 16;
    next_client = 0;
    next_job = 0;
    jobs_tbl = Hashtbl.create 64;
    order = [];
    queue = Queue.create ();
    outbox = Queue.create ();
    is_draining = false;
    is_stopped = false;
    n_requests = 0;
    n_errors = 0;
    n_batches = 0;
    n_submitted = 0;
    n_completed = 0;
    n_cancelled = 0;
    n_shed = 0;
    n_failed = 0;
    queue_peak = 0;
    latencies_ms = [];
  }

let connect t =
  let cid = t.next_client in
  t.next_client <- cid + 1;
  Hashtbl.replace t.clients cid { watcher = false; gone = false };
  cid

let disconnect t cid =
  match Hashtbl.find_opt t.clients cid with
  | Some c -> c.gone <- true
  | None -> ()

let live_clients t =
  Hashtbl.fold (fun cid c acc -> if c.gone then acc else cid :: acc) t.clients []
  |> List.sort compare

let emit t cid resp =
  match Hashtbl.find_opt t.clients cid with
  | Some c when not c.gone ->
      Queue.add (cid, Proto.print_response resp) t.outbox
  | _ -> ()

let emit_error t cid code msg =
  t.n_errors <- t.n_errors + 1;
  emit t cid (Proto.Error { code; msg })

(* Job events go to the owner and then to every watcher, in client-id
   order — a deterministic fan-out whatever the Hashtbl layout. *)
let broadcast t ~owner resp =
  emit t owner resp;
  List.iter
    (fun cid ->
      if cid <> owner then
        match Hashtbl.find_opt t.clients cid with
        | Some c when c.watcher && not c.gone -> emit t cid resp
        | _ -> ())
    (live_clients t)

let pending t = Queue.length t.queue
let draining t = t.is_draining
let stopped t = t.is_stopped

let take_outputs t =
  let out = List.rev (Queue.fold (fun acc x -> x :: acc) [] t.outbox) in
  Queue.clear t.outbox;
  out

let stats t : Proto.stats_view =
  let pct p =
    match t.latencies_ms with
    | [] -> None
    | xs -> Some (Prelude.Stats.percentile p xs)
  in
  {
    requests = t.n_requests;
    submitted = t.n_submitted;
    completed = t.n_completed;
    cancelled = t.n_cancelled;
    shed = t.n_shed;
    failed = t.n_failed;
    errors = t.n_errors;
    batches = t.n_batches;
    queue_depth = pending t;
    queue_peak = t.queue_peak;
    clients = List.length (live_clients t);
    p50_ms = pct 50.;
    p99_ms = pct 99.;
  }

let job_view (j : entry) : Proto.job_view =
  {
    id = j.jid;
    state = j.jstate;
    spec = j.jspec;
    priority = j.jpriority;
    makespan = j.jmakespan;
  }

(* ---------------- submission ---------------- *)

let resolve_graph t (spec : Proto.spec) =
  match spec with
  | Proto.Inline text ->
      let g = Graph_io.of_string text in
      (Printf.sprintf "inline:%d" (Graph.n_tasks g), g)
  | Proto.Testbed spec ->
      let job = Event.job_of_spec spec in
      let canonical = Event.spec_of_job job in
      let g =
        match Hashtbl.find_opt t.graphs canonical with
        | Some g -> g
        | None ->
            let suite = Suite.find job.testbed in
            let g =
              suite.Suite.build
                ~n:(max job.Event.n suite.Suite.min_n)
                ~ccr:job.Event.ccr
            in
            Hashtbl.replace t.graphs canonical g;
            g
      in
      (canonical, g)

(* Shedding and cancelling are the only removals from the middle of the
   backlog; both are bounded by [queue_cap], so a rebuild is cheap. *)
let remove_queued t id =
  let kept = Queue.create () in
  Queue.iter (fun j -> if j.entry.jid <> id then Queue.add j kept) t.queue;
  Queue.clear t.queue;
  Queue.transfer kept t.queue

(* A full backlog sheds a queued job by the shared victim rule
   ({!Online.Admission.shed_victim}) before refusing outright. *)
let try_shed t ~for_id ~priority =
  let victim =
    Online.Admission.shed_victim
      ~priority:(fun j -> j.entry.jpriority)
      ~id:(fun j -> j.entry.jid)
      ~below:priority (Queue.to_seq t.queue)
  in
  match victim with
  | None -> false
  | Some v ->
      remove_queued t v.entry.jid;
      v.entry.jstate <- Proto.Shed_state;
      t.n_shed <- t.n_shed + 1;
      Counters.(bump shed_jobs);
      if v.jdeadline <> None then Counters.(bump deadline_misses);
      broadcast t ~owner:v.owner
        (Proto.Shed { id = v.entry.jid; by = for_id });
      true

let handle_submit t ~client (s : Proto.submit) =
  if t.is_draining then
    emit_error t client Proto.Draining "daemon is draining; submission refused"
  else if t.n_batches >= t.cfg.replan_budget then
    emit_error t client Proto.Budget "re-plan budget exhausted"
  else
    match
      let heuristic =
        Option.value ~default:t.cfg.heuristic s.Proto.heuristic
      in
      let entry = Registry.find heuristic in
      let params =
        match s.Proto.model with
        | None -> t.cfg.params
        | Some m ->
            Params.with_model t.cfg.params (Commmodel.Comm_model.of_name m)
      in
      let spec, graph = resolve_graph t s.Proto.spec in
      (entry, params, spec, graph)
    with
    | exception Invalid_argument msg -> emit_error t client Proto.Bad_request msg
    | entry, params, spec, graph ->
        let id = t.next_job in
        if
          pending t >= t.cfg.queue_cap
          && not (try_shed t ~for_id:id ~priority:s.Proto.priority)
        then
          emit_error t client Proto.Queue_full
            (Printf.sprintf "backlog full (%d jobs) and nothing sheddable"
               t.cfg.queue_cap)
        else begin
          t.next_job <- id + 1;
          let e =
            {
              jid = id;
              jspec = spec;
              jpriority = s.Proto.priority;
              jstate = Proto.Queued;
              jmakespan = None;
            }
          in
          let job =
            {
              entry = e;
              owner = client;
              run = (fun () -> entry.Registry.scheduler params t.platform graph);
              jgraph = graph;
              jdeadline = s.Proto.deadline;
              want_placements = s.Proto.placements;
              submitted_at = t.clock ();
            }
          in
          Hashtbl.replace t.jobs_tbl id e;
          t.order <- id :: t.order;
          Queue.add job t.queue;
          t.n_submitted <- t.n_submitted + 1;
          Counters.(bump queued_jobs);
          let queued = pending t in
          t.queue_peak <- max t.queue_peak queued;
          emit t client (Proto.Accepted { id; queued })
        end

(* ---------------- the other requests ---------------- *)

let handle_status t ~client = function
  | Some id -> (
      match Hashtbl.find_opt t.jobs_tbl id with
      | None ->
          emit_error t client Proto.Unknown_id
            (Printf.sprintf "no such job %d" id)
      | Some j -> emit t client (Proto.Status_reply [ job_view j ]))
  | None ->
      let views =
        List.rev_map
          (fun id -> job_view (Hashtbl.find t.jobs_tbl id))
          t.order
      in
      emit t client (Proto.Status_reply views)

let handle_cancel t ~client id =
  match Hashtbl.find_opt t.jobs_tbl id with
  | None ->
      emit_error t client Proto.Unknown_id (Printf.sprintf "no such job %d" id)
  | Some j when j.jstate = Proto.Queued ->
      remove_queued t id;
      j.jstate <- Proto.Cancelled;
      t.n_cancelled <- t.n_cancelled + 1;
      emit t client (Proto.Cancelled_reply { id })
  | Some j ->
      emit_error t client Proto.Bad_request
        (Printf.sprintf "job %d is %s; only queued jobs can be cancelled" id
           (Proto.job_state_to_string j.jstate))

let drain t = t.is_draining <- true

let input t ~client line =
  if not t.is_stopped then begin
    t.n_requests <- t.n_requests + 1;
    Counters.(bump requests);
    match Proto.request_of_line line with
    | Error msg -> emit_error t client Proto.Parse msg
    | Ok (Proto.Submit s) -> handle_submit t ~client s
    | Ok (Proto.Status id) -> handle_status t ~client id
    | Ok (Proto.Cancel id) -> handle_cancel t ~client id
    | Ok Proto.Watch ->
        (match Hashtbl.find_opt t.clients client with
        | Some c -> c.watcher <- true
        | None -> ());
        emit t client Proto.Watching
    | Ok Proto.Drain ->
        drain t;
        emit t client (Proto.Draining_reply { pending = pending t })
    | Ok Proto.Stats -> emit t client (Proto.Stats_reply (stats t))
    | Ok Proto.Ping -> emit t client Proto.Pong
  end

(* ---------------- batch flush ---------------- *)

let placement_rows sched g =
  List.init (Graph.n_tasks g) (fun v ->
      let pl = Schedule.placement_exn sched v in
      {
        Proto.task = v;
        proc = pl.Schedule.proc;
        start = pl.Schedule.start;
        finish = pl.Schedule.finish;
      })

let split_batch t =
  Array.init (min t.cfg.max_batch (pending t)) (fun _ -> Queue.pop t.queue)

let maybe_finish t =
  if t.is_draining && Queue.is_empty t.queue && not t.is_stopped then begin
    List.iter (fun cid -> emit t cid Proto.Bye) (live_clients t);
    t.is_stopped <- true
  end

let flush t =
  let batch = split_batch t in
  let n = Array.length batch in
  if n > 0 then begin
    t.n_batches <- t.n_batches + 1;
    Counters.(bump batched_replans);
    (* Workers never raise: each slot holds the job's own verdict. *)
    let results = Array.make n (Error "not scheduled") in
    let run_one i =
      let j = batch.(i) in
      results.(i) <-
        (try Ok (j.run ()) with
        | Invalid_argument msg | Failure msg -> Error msg
        | exn -> Error (Printexc.to_string exn))
    in
    Pool.run t.pool n run_one;
    Array.iteri
      (fun i j ->
        match results.(i) with
        | Error msg ->
            j.entry.jstate <- Proto.Failed_state;
            t.n_failed <- t.n_failed + 1;
            broadcast t ~owner:j.owner (Proto.Failed { id = j.entry.jid; msg })
        | Ok sched ->
            let makespan = Schedule.makespan sched in
            let valid = Validate.is_valid sched in
            let missed =
              match j.jdeadline with
              | Some d when makespan > d ->
                  Counters.(bump deadline_misses);
                  true
              | _ -> false
            in
            j.entry.jstate <- Proto.Done_state;
            j.entry.jmakespan <- Some makespan;
            t.n_completed <- t.n_completed + 1;
            t.latencies_ms <-
              ((t.clock () -. j.submitted_at) *. 1000.) :: t.latencies_ms;
            broadcast t ~owner:j.owner
              (Proto.Placed
                 {
                   id = j.entry.jid;
                   makespan;
                   tasks = Graph.n_tasks j.jgraph;
                   valid;
                   fingerprint = Export.fingerprint sched;
                   batch = n;
                   placements =
                     (if j.want_placements then
                        Some (placement_rows sched j.jgraph)
                      else None);
                 });
            broadcast t ~owner:j.owner
              (Proto.Done { id = j.entry.jid; makespan; missed }))
      batch
  end;
  maybe_finish t;
  n

let shutdown t = Pool.stop t.pool

(* ------------------------------------------------------------------ *)
(* the transport shell                                                 *)
(* ------------------------------------------------------------------ *)

type endpoint = Unix_path of string | Tcp of int

let endpoint_to_string = function
  | Unix_path path -> path
  | Tcp port -> Printf.sprintf "tcp:%d" port

(* A stale socket file from a crashed daemon must not block restarts,
   but a live daemon must: probe with a connect before unlinking. *)
let claim_unix_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error (_, _, _) -> false
    in
    Unix.close probe;
    if live then
      failwith (Printf.sprintf "already listening on %s" path)
    else try Unix.unlink path with Unix.Unix_error (_, _, _) -> ()
  end

let bind_endpoint endpoint =
  match endpoint with
  | Unix_path path ->
      claim_unix_path path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
         Unix.close fd;
         failwith (Printf.sprintf "already listening on tcp:%d" port));
      fd

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rbuf : Buffer.t;  (** partial line carried between reads *)
  wbuf : Buffer.t;  (** replies queued for the socket *)
  mutable woff : int;  (** bytes of [wbuf] already written *)
}

let unwritten c = Buffer.length c.wbuf - c.woff
let drain_signal = ref false

let chomp_cr line =
  let k = String.length line in
  if k > 0 && line.[k - 1] = '\r' then String.sub line 0 (k - 1) else line

let serve ?config ?clock ?(ready = fun () -> ()) endpoint platform =
  let core = create ?config ?clock platform in
  let window = core.cfg.batch_window in
  let listen_fd = bind_endpoint endpoint in
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  drain_signal := false;
  let on_signal = Sys.Signal_handle (fun _ -> drain_signal := true) in
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigterm on_signal;
  ready ();
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let by_cid : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let scratch = Bytes.create 65536 and out = Bytes.create 65536 in
  let batch_deadline = ref None in
  let close_conn c =
    disconnect core c.cid;
    Hashtbl.remove conns c.fd;
    Hashtbl.remove by_cid c.cid;
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()
  in
  let accept_all () =
    let continue = ref true in
    while !continue do
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          let cid = connect core in
          let c =
            { fd; cid; rbuf = Buffer.create 256; wbuf = Buffer.create 256;
              woff = 0 }
          in
          Hashtbl.replace conns fd c;
          Hashtbl.replace by_cid cid c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let feed_lines c k =
    (* split complete lines out of the [k] bytes just read, scanning only
       those; a trailing partial line is carried in [rbuf] *)
    let start = ref 0 in
    for i = 0 to k - 1 do
      if Bytes.get scratch i = '\n' then begin
        let line =
          if Buffer.length c.rbuf = 0 then
            Bytes.sub_string scratch !start (i - !start)
          else begin
            Buffer.add_subbytes c.rbuf scratch !start (i - !start);
            let carried = Buffer.contents c.rbuf in
            Buffer.clear c.rbuf;
            carried
          end
        in
        let line = chomp_cr line in
        if line <> "" then input core ~client:c.cid line;
        start := i + 1
      end
    done;
    if !start < k then Buffer.add_subbytes c.rbuf scratch !start (k - !start)
  in
  let read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> close_conn c
    | k -> feed_lines c k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn c
  in
  (* Write until the socket would block.  Each call copies at most one
     chunk out of [wbuf], so a reply costs time linear in its length
     however the kernel splits the writes. *)
  let try_write c =
    let blocked = ref false in
    while (not !blocked) && unwritten c > 0 do
      let len = min (unwritten c) (Bytes.length out) in
      Buffer.blit c.wbuf c.woff out 0 len;
      match Unix.write c.fd out 0 len with
      | k -> c.woff <- c.woff + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          blocked := true
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          blocked := true;
          close_conn c
    done;
    if unwritten c = 0 then begin
      Buffer.clear c.wbuf;
      c.woff <- 0
    end
  in
  let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  let ship_outputs () =
    List.iter
      (fun (cid, line) ->
        match Hashtbl.find_opt by_cid cid with
        | Some c ->
            Buffer.add_string c.wbuf line;
            Buffer.add_char c.wbuf '\n'
        | None -> ())
      (take_outputs core);
    List.iter try_write (all_conns ())
  in
  while not (stopped core) do
    if !drain_signal && not (draining core) then drain core;
    (* the first pending submission arms the window's deadline *)
    (if pending core > 0 then begin
       if !batch_deadline = None then
         batch_deadline := Some (Unix.gettimeofday () +. window)
     end
     else batch_deadline := None);
    (* with a backlog, only poll: the batch runs as soon as no input is
       waiting, so it holds everything that arrived meanwhile *)
    let timeout =
      if pending core > 0 then 0. else if draining core then 0.05 else 0.5
    in
    let rds = listen_fd :: List.map (fun c -> c.fd) (all_conns ()) in
    let wrs =
      List.filter_map
        (fun c -> if unwritten c > 0 then Some c.fd else None)
        (all_conns ())
    in
    let readable =
      match Unix.select rds wrs [] timeout with
      | rready, wready, _ ->
          if List.mem listen_fd rready then accept_all ();
          List.iter
            (fun fd ->
              if fd <> listen_fd then
                match Hashtbl.find_opt conns fd with
                | Some c -> read_conn c
                | None -> ())
            rready;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> try_write c
              | None -> ())
            wready;
          rready <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    in
    (* the window only bounds the wait: input that never pauses must
       not hold the backlog forever *)
    let due =
      pending core > 0
      && ((not readable)
         || pending core >= core.cfg.max_batch
         || draining core
         || match !batch_deadline with
            | Some d -> Unix.gettimeofday () >= d
            | None -> false)
    in
    if due then begin
      while pending core > 0 do
        ignore (flush core)
      done;
      batch_deadline := None
    end;
    if draining core && pending core = 0 then ignore (flush core);
    ship_outputs ()
  done;
  (* best-effort delivery of the goodbye lines before closing *)
  let rounds = ref 0 in
  while
    !rounds < 100
    && List.exists (fun c -> unwritten c > 0) (all_conns ())
  do
    incr rounds;
    let wrs =
      List.filter_map
        (fun c -> if unwritten c > 0 then Some c.fd else None)
        (all_conns ())
    in
    (match Unix.select [] wrs [] 0.05 with
    | _, wready, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> try_write c
            | None -> ())
          wready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  List.iter close_conn (all_conns ());
  (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
  (match endpoint with
  | Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | Tcp _ -> ());
  let final = stats core in
  shutdown core;
  final
