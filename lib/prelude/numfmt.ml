external format_float : string -> float -> string = "caml_format_float"

external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

type t = { mutable buf : bytes; mutable pos : int }

let create n = { buf = Bytes.create (max n 16); pos = 0 }

let reserve w n =
  let need = w.pos + n in
  if need > Bytes.length w.buf then begin
    let bigger = Bytes.create (max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 bigger 0 w.pos;
    w.buf <- bigger
  end

let length w = w.pos
let contents w = Bytes.sub_string w.buf 0 w.pos
let digest w = Digest.subbytes w.buf 0 w.pos

(* "-4611686018427387904"; "-1.79769e+308"; "-0x1.fffffffffffffp+1023"
   (the runtime's "infinity" and "nan" forms are shorter). *)
let int_width = 20
let g_width = 13
let h_width = 24

let add_char w c =
  Bytes.unsafe_set w.buf w.pos c;
  w.pos <- w.pos + 1

(* The exporters' literals are a few bytes long: copying them in a loop
   beats a call to the runtime's blit. *)
let add_string w s =
  let n = String.length s and b = w.buf and pos = w.pos in
  if n <= 16 then
    for i = 0 to n - 1 do
      Bytes.unsafe_set b (pos + i) (String.unsafe_get s i)
    done
  else Bytes.unsafe_blit_string s 0 b pos n;
  w.pos <- pos + n

(* Decimal digits of [n >= 0]: comparisons, not a chain of divisions. *)
let rec digits n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else if n < 10000 then 4
  else if n < 100000 then 5
  else if n < 1000000 then 6
  else 6 + digits (n / 1000000)

(* "00" to "99": two digits per division. *)
let pairs =
  String.init 200 (fun i ->
      Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* [n >= 0] in decimal, filled in from the last digit back. *)
let add_digits w n =
  let b = w.buf in
  let stop = w.pos + digits n in
  let i = ref stop and m = ref n in
  while !m >= 10 do
    let q = !m / 100 in
    let r = 2 * (!m - (q * 100)) in
    i := !i - 2;
    Bytes.unsafe_set b !i (String.unsafe_get pairs r);
    Bytes.unsafe_set b (!i + 1) (String.unsafe_get pairs (r + 1));
    m := q
  done;
  if !i > w.pos then Bytes.unsafe_set b w.pos (Char.unsafe_chr (48 + !m));
  w.pos <- stop

(* [-min_int] overflows, so that one value goes through the runtime. *)
let add_int w n =
  if n >= 0 then add_digits w n
  else if n = min_int then add_string w (Int.to_string n)
  else begin
    add_char w '-';
    add_digits w (-n)
  end

let add_g_slow w x = add_string w (format_float "%.6g" x)

(* "%g" keeps six significant digits, so every integer below 1e6 in
   magnitude prints exactly as its decimal digits; -0. prints "-0".
   Below 1e6 (which also rules out NaN and infinities) [x] is an integer
   iff truncating it loses nothing.  Inlined, so that a float read from
   an array reaches the integer path without being boxed; only the
   runtime path takes a boxed one. *)
let[@inline] add_g w x =
  if
    Float.abs x < 1e6
    && Float.of_int (Float.to_int x) = x
    && not (x = 0. && Float.sign_bit x)
  then add_int w (Float.to_int x)
  else add_g_slow w x

let hex_digits = "0123456789abcdef"

let mantissa_mask = (1 lsl 52) - 1

(* Printf's "%h" is the runtime's [caml_hexstring_of_float] with its
   default precision (-6: as many digits as needed) and sign flag.  This
   is the same rendering written from the float's bits: ["-"] on a set
   sign bit, ["0x1"] (normal) or ["0x0"] (zero, subnormal), the 52-bit
   mantissa in hex digits without trailing zeros after a ['.'] when it
   is not zero, then ["p"] and the signed binary exponent (-1022 for
   subnormals, 0 for zeros).  Infinities and NaNs keep the runtime
   path. *)
let add_h_finite w ~negative ~biased ~mantissa =
  if negative then add_char w '-';
  let m = ref mantissa in
  let exp =
    if biased > 0 then biased - 1023 else if !m = 0 then 0 else -1022
  in
  add_char w '0';
  add_char w 'x';
  add_char w (if biased > 0 then '1' else '0');
  if !m <> 0 then begin
    add_char w '.';
    while !m <> 0 do
      add_char w (String.unsafe_get hex_digits (!m lsr 48));
      m := (!m lsl 4) land mantissa_mask
    done
  end;
  add_char w 'p';
  if exp >= 0 then add_char w '+';
  add_int w exp

let add_h_special w x = add_string w (hexstring_of_float x (-6) '-')

(* Inlined, like [add_g]: the float is split into its sign, exponent and
   mantissa here, and only ints cross the call. *)
let[@inline] add_h w x =
  let bits = Int64.bits_of_float x in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  if biased = 0x7FF then add_h_special w x
  else
    add_h_finite w
      ~negative:(Int64.compare bits 0L < 0)
      ~biased
      ~mantissa:(Int64.to_int bits land mantissa_mask)

let buffer_add_int buf n =
  let w = create int_width in
  add_int w n;
  Buffer.add_subbytes buf w.buf 0 w.pos
