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

(* Printf's "%h" is this call with its default precision (-6: as many
   digits as needed) and the default sign flag. *)
let add_h buf x = Buffer.add_string buf (hexstring_of_float x (-6) '-')
