(** Schedule export for external tooling.

    Three outputs:

    - {e Chrome trace} (the [chrome://tracing] / Perfetto JSON array
      format): each task execution and each communication hop becomes a
      complete event ([ph = "X"]), with one trace process per processor
      and threads for compute / send port / receive port, so the one-port
      serialisation is directly visible on the timeline;
    - {e CSV}: one row per event, for spreadsheets and plotting scripts;
    - {e fingerprint}: an MD5 digest of the plan, bit for bit.

    The trace and the CSV need a complete schedule: on a partial one they
    raise [Invalid_argument "Schedule: task N not placed"] for the
    lowest-numbered unplaced task [N].  The fingerprint accepts partial
    schedules.

    Numbers print as [Printf]'s ["%d"], ["%g"] (trace and CSV) and ["%h"]
    (fingerprint) would print them, byte for byte, but are written
    straight into the output buffer by {!Prelude.Numfmt}. *)

(** [to_chrome_trace ?time_unit s] — JSON string.  Events are emitted in
    chronological order; [time_unit] scales schedule time to microseconds
    (default 1.0, i.e. one schedule time unit = 1 µs).
    @raise Invalid_argument if a task is unplaced. *)
val to_chrome_trace : ?time_unit:float -> Schedule.t -> string

(** Columns: [kind,name,processor,resource,start,finish,duration] where
    [kind] is [task], [copy] (an extra copy of a duplicated task, right
    after its task row) or [comm], and [resource] is [cpu], [send] or
    [recv] (communications appear twice: once per endpoint port).
    @raise Invalid_argument if a task is unplaced. *)
val to_csv : Schedule.t -> string

(** [write_file path contents] — tiny convenience used by the CLI. *)
val write_file : string -> string -> unit

(** MD5 hex digest of the complete plan: makespan, every placement
    ([%h], so bit-exact), every communication hop in commit order and
    every BSP phase.  Two schedules fingerprint equal iff they are the
    same plan bit for bit — the determinism and offline-equivalence
    contract of [scheduld] (see [doc/scheduld.md]) and of
    [schedcli run --fingerprint] compare on this.  Unplaced tasks
    render as ["-"], so partial schedules are fingerprintable too. *)
val fingerprint : Schedule.t -> string
