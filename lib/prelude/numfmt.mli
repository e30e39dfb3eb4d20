(** Number formatting straight into a [Buffer], byte-identical to
    [Printf]'s conversions without going through [Printf].

    [Printf.bprintf buf "%g" x] interprets its format at run time and
    rebuilds the C format string ["%.6g"] on every call before the
    runtime's [printf] runs.  The exporters print several numbers per
    task, so they use these helpers instead. *)

(** [add_int buf n] appends [Printf.sprintf "%d" n], writing the digits
    itself. *)
val add_int : Buffer.t -> int -> unit

(** [add_g buf x] appends [Printf.sprintf "%g" x].  Integer-valued
    floats with [|x| < 1e6] (except [-0.]) are printed from their [int]
    value, since ["%g"] writes them as plain integers; everything else
    goes to the runtime's ["%.6g"] directly. *)
val add_g : Buffer.t -> float -> unit

(** [add_h buf x] appends [Printf.sprintf "%h" x] (hexadecimal,
    bit-exact).  Finite floats are written digit by digit from
    [Int64.bits_of_float x], with no intermediate string; infinities and
    NaNs go through the runtime's [caml_hexstring_of_float], as
    [Printf] does. *)
val add_h : Buffer.t -> float -> unit

(** [format_float fmt x] is the runtime's C [printf] of [x] under the
    single conversion [fmt] (e.g. ["%.15g"]), the primitive behind
    [Printf]'s float conversions. *)
external format_float : string -> float -> string = "caml_format_float"
