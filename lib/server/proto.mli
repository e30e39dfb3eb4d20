(** The scheduld wire protocol: typed messages over newline-delimited
    JSON.

    One request or response per line.  Clients speak {!request}s, the
    daemon answers with {!response}s; some responses ([Placed], [Done],
    [Shed], [Failed], [Bye]) are {e events} that can also reach clients
    that registered as watchers ([Watch]).  The full grammar, batching
    semantics and failure replies are documented in [doc/scheduld.md].

    Round trip: [request_of_line (print_request r) = Ok r] and likewise
    for responses — for {e every} constructor, including error replies;
    property-tested in [test_scheduld.ml]. *)

(** What a submission schedules: a job spec in the online trace grammar
    ([TESTBED:N[:CCR]], including [layered:L:W:N[:CCR]]), or an inline
    DAG in the {!Taskgraph.Io} text format. *)
type spec = Testbed of string | Inline of string

type submit = {
  spec : spec;
  heuristic : string option;  (** registry name; [None] = server default *)
  model : string option;  (** {!Commmodel.Comm_model.of_name}; server default *)
  priority : int;  (** shedding rank, higher = more important (default 0) *)
  deadline : float option;  (** makespan bound; misses are reported, not fatal *)
  placements : bool;  (** stream the per-task placement table back *)
}

type request =
  | Submit of submit
  | Status of int option  (** all jobs, or one id *)
  | Cancel of int  (** queued jobs only *)
  | Watch  (** subscribe this connection to every job's events *)
  | Drain  (** stop admitting, finish the backlog, then shut down *)
  | Stats
  | Ping

type error_code =
  | Parse  (** the line was not a well-formed request *)
  | Bad_request  (** well-formed but unsatisfiable (unknown name, bad spec) *)
  | Unknown_id
  | Draining  (** submission refused: the daemon is shutting down *)
  | Queue_full  (** admission control: backlog at capacity, nothing sheddable *)
  | Budget  (** the re-plan budget is exhausted *)

type job_state = Queued | Placed_state | Done_state | Cancelled | Shed_state | Failed_state

type job_view = {
  id : int;
  state : job_state;
  spec : string;
  priority : int;
  makespan : float option;
}

type stats_view = {
  requests : int;
  submitted : int;
  completed : int;
  cancelled : int;
  shed : int;
  failed : int;
  errors : int;
  batches : int;  (** coalesced re-plans run so far *)
  queue_depth : int;
  queue_peak : int;
  clients : int;
  p50_ms : float option;  (** submit-to-first-placement service latency *)
  p99_ms : float option;
}

type placement_row = { task : int; proc : int; start : float; finish : float }

type response =
  | Accepted of { id : int; queued : int }
  | Placed of {
      id : int;
      makespan : float;
      tasks : int;
      valid : bool;
      fingerprint : string;  (** {!Sched.Export.fingerprint} of the plan *)
      batch : int;  (** jobs coalesced into the re-plan that served this *)
      placements : placement_row list option;
    }
  | Done of { id : int; makespan : float; missed : bool }
  | Failed of { id : int; msg : string }
  | Shed of { id : int; by : int }  (** dropped in favour of job [by] *)
  | Cancelled_reply of { id : int }
  | Status_reply of job_view list
  | Stats_reply of stats_view
  | Draining_reply of { pending : int }
  | Watching
  | Bye  (** the daemon is gone; sent to every client on shutdown *)
  | Pong
  | Error of { code : error_code; msg : string }

val error_code_to_string : error_code -> string
val job_state_to_string : job_state -> string

(** Single line, no trailing newline. *)
val print_request : request -> string

val print_response : response -> string

(** Total — malformed input is an [Error] description, never an
    exception. *)
val request_of_line : string -> (request, string) result

val response_of_line : string -> (response, string) result
