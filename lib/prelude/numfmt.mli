(** A flat output writer: text straight into one [Bytes], with numbers
    written byte-identical to [Printf]'s ["%d"], ["%g"] and ["%h"]
    without going through [Printf].

    The exporters write a handful of fields per task, so the writer drops
    the per-character work of a [Buffer]: a caller {!reserve}s room for a
    whole row or entry once (the [*_width] constants bound each number),
    then writes into it with no capacity check at all.  Writing more than
    was reserved is a caller bug that corrupts memory; every caller sums
    the widths of exactly the writes that follow its [reserve].

    [Printf.bprintf buf "%g" x] would also interpret its format at run
    time and rebuild the C format string ["%.6g"] on every call. *)

type t

(** [create n] is an empty writer with room for [n] bytes. *)
val create : int -> t

(** [reserve w n] makes room for [n] more bytes, growing the writer when
    needed.  Only the writes that follow, up to [n] bytes in total, are
    covered. *)
val reserve : t -> int -> unit

(** Bytes written so far. *)
val length : t -> int

val contents : t -> string

(** [digest w] is [Digest.string (contents w)], hashed in place. *)
val digest : t -> Digest.t

(** The most bytes {!add_int}, {!add_g} and {!add_h} write for one
    number. *)
val int_width : int

val g_width : int
val h_width : int

(** Unchecked writes: each must be covered by a {!reserve}. *)
val add_char : t -> char -> unit

val add_string : t -> string -> unit

(** [add_int w n] writes [Printf.sprintf "%d" n], digit by digit. *)
val add_int : t -> int -> unit

(** [add_g w x] writes [Printf.sprintf "%g" x].  Integer-valued floats
    with [|x| < 1e6] (except [-0.]) are written from their [int] value,
    since ["%g"] writes them as plain integers; everything else goes to
    the runtime's ["%.6g"] directly. *)
val add_g : t -> float -> unit

(** [add_h w x] writes [Printf.sprintf "%h" x] (hexadecimal, bit-exact).
    Finite floats are written digit by digit from
    [Int64.bits_of_float x], with no intermediate string; infinities and
    NaNs go through the runtime's [caml_hexstring_of_float], as [Printf]
    does. *)
val add_h : t -> float -> unit

(** [buffer_add_int buf n] appends [Printf.sprintf "%d" n] to a [Buffer],
    through {!add_int}; for printers that build with [Buffer]. *)
val buffer_add_int : Buffer.t -> int -> unit

(** [format_float fmt x] is the runtime's C [printf] of [x] under the
    single conversion [fmt] (e.g. ["%.15g"]), the primitive behind
    [Printf]'s float conversions. *)
external format_float : string -> float -> string = "caml_format_float"
