(** Chrome-trace (chrome://tracing / Perfetto) export of recorded spans.

    The writer emits the JSON array flavour of the Trace Event Format:
    one ["B"]/["E"] duration event per recorded {!Span} event, plus
    process/thread naming metadata, plus (optionally) a ["C"] counter
    event carrying the engine counters.  The output is always
    well-formed for the viewers:

    - spans are {e balanced}: an [End] with no open [Begin] is dropped,
      and [Begin]s still open when the buffer ends are closed at the
      final timestamp (ring overwrite can orphan either side);
    - timestamps are monotone non-decreasing (guaranteed at record time
      by {!Span}) and expressed in microseconds relative to the first
      event. *)

(** [add_json_string buf s] appends [s] as a quoted JSON string: quote,
    backslash, newline, carriage return and tab get their short escapes,
    other control bytes [\u00XX]; every other byte passes through, so
    UTF-8 stays as is.  The daemon's wire printer writes its strings
    with it too. *)
val add_json_string : Buffer.t -> string -> unit

(** [to_chrome ?pid ?counters events] — the JSON text.  [pid] defaults
    to 0; [counters], when given, is attached as a counter track. *)
val to_chrome :
  ?pid:int -> ?counters:Counters.snapshot -> Span.event list -> string

(** [write path ?counters events] — {!to_chrome} to a file. *)
val write : ?counters:Counters.snapshot -> string -> Span.event list -> unit
