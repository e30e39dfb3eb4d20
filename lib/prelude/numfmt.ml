external format_float : string -> float -> string = "caml_format_float"

external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

(* Digits are written most significant first by recursing on [n / 10];
   [-min_int] overflows, so that one value goes through the runtime. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (Int.to_string n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* "%g" keeps six significant digits, so every integer below 1e6 in
   magnitude prints exactly as its decimal digits; -0. prints "-0". *)
let add_g buf x =
  if
    Float.abs x < 1e6 && Float.is_integer x
    && not (x = 0. && Float.sign_bit x)
  then add_int buf (int_of_float x)
  else Buffer.add_string buf (format_float "%.6g" x)

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
let add_h buf x =
  let bits = Int64.bits_of_float x in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  if biased = 0x7FF then Buffer.add_string buf (hexstring_of_float x (-6) '-')
  else begin
    if Int64.compare bits 0L < 0 then Buffer.add_char buf '-';
    let m = ref (Int64.to_int bits land mantissa_mask) in
    let exp =
      if biased > 0 then biased - 1023 else if !m = 0 then 0 else -1022
    in
    Buffer.add_string buf (if biased > 0 then "0x1" else "0x0");
    if !m <> 0 then begin
      Buffer.add_char buf '.';
      while !m <> 0 do
        Buffer.add_char buf hex_digits.[!m lsr 48];
        m := (!m lsl 4) land mantissa_mask
      done
    end;
    Buffer.add_string buf (if exp >= 0 then "p+" else "p");
    add_int buf exp
  end
