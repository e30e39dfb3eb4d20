type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal that round-trips: ids and counts print as "3", not
   "3.000000", while any finite float survives parse ∘ print exactly
   (-0. included: it prints as "-0", as "%.0f" does). *)
let add_num buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0. && Float.sign_bit x then Buffer.add_string buf "-0"
    else Prelude.Numfmt.buffer_add_int buf (int_of_float x)
  else
    let fmt = Prelude.Numfmt.format_float in
    let s = fmt "%.15g" x in
    Buffer.add_string buf
      (if float_of_string s = x then s
       else
         let s = fmt "%.16g" x in
         if float_of_string s = x then s else fmt "%.17g" x)

let print v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_num buf x
    | Str s -> Obs.Trace_export.add_json_string buf s
    | Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Obs.Trace_export.add_json_string buf k;
            Buffer.add_char buf ':';
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let max_depth = 64

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "bad literal (expected %s)" word)
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match text.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some x when Float.is_finite x -> Num x
    | _ -> fail "bad number"
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c <> '\\' then begin
        Buffer.add_char buf c;
        go ()
      end
      else begin
        (if !pos >= n then fail "unterminated escape";
         let e = text.[!pos] in
         incr pos;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let code =
               (hex text.[!pos] lsl 12)
               lor (hex text.[!pos + 1] lsl 8)
               lor (hex text.[!pos + 2] lsl 4)
               lor hex text.[!pos + 3]
             in
             pos := !pos + 4;
             (* byte-oriented: code points above 255 are replaced, which
                keeps the reader total; the printer only emits \u00XX *)
             Buffer.add_char buf
               (if code < 256 then Char.chr code else '?')
         | _ -> fail "bad escape");
        go ()
      end
    in
    go ()
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elems acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_float = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 1e15 ->
      Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None
