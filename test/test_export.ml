(* Byte identity of the Printf-free formatters and exporters.

   [Prelude.Numfmt] replaces [Printf]'s "%d", "%g" and "%h" in the
   exporters, and the wire printer replaces "%.0f" / "%.15g"-"%.17g".
   Both are held to the [Printf] formats on edge values and on random bit
   patterns.  [Export_ref] is the same exporter written with [Printf];
   [to_csv], [fingerprint] and [to_chrome_trace] must reproduce it byte
   for byte on every kind of schedule: single-copy, duplicated (copy
   rows), BSP (phase entries) and partial (unplaced tasks). *)

module O = Onesched
open Onesched_oracle
module Numfmt = Prelude.Numfmt
open Util

(* One number through the writer, after reserving the room its width
   constant promises; a number longer than that width fails the test. *)
let with_buf f ~width x =
  let w = Numfmt.create 0 in
  Numfmt.reserve w width;
  f w x;
  if Numfmt.length w > width then
    Alcotest.failf "wrote %d bytes into %d reserved" (Numfmt.length w) width;
  Numfmt.contents w

let add_int = with_buf Numfmt.add_int ~width:Numfmt.int_width
let add_g = with_buf Numfmt.add_g ~width:Numfmt.g_width
let add_h = with_buf Numfmt.add_h ~width:Numfmt.h_width

(* The wire printer as it was written with Printf. *)
let wire_num_ref x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s
    else
      let s = Printf.sprintf "%.16g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

let wire_num x = O.Scheduld_wire.print (O.Scheduld_wire.Num x)

let edge_floats =
  [
    0.; -0.; 1.; -1.; 0.5; 999999.; 1e6; -999999.; -1e6; 999999.5;
    -999999.5; 123456.7; 1e15; -1e15; 1e15 +. 1.; 1e-7; 0.1;
    Float.min_float; 5e-324 (* smallest subnormal *); Float.max_float;
    -.Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
    Float.of_int max_int; Float.of_int min_int;
  ]

let edge_ints =
  [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; min_int + 1 ]

(* Random bit patterns cover every exponent, subnormals, infinities and
   NaNs; integers and half-integers around the 1e6 cut probe the fast
   path's boundary. *)
let float_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map Int64.float_of_bits int64);
        (2, map float_of_int (int_range (-2_000_000) 2_000_000));
        ( 1,
          map
            (fun i -> float_of_int i +. 0.5)
            (int_range (-2_000_000) 2_000_000) );
        (1, oneofl edge_floats);
      ])

let float_print x = Printf.sprintf "%h" x

let same_as_printf name f ref_ x ~print =
  let got = f x and want = ref_ x in
  if got <> want then
    Alcotest.failf "%s %s: got %S, Printf gives %S" name (print x) got want

let formatter_tests =
  [
    Alcotest.test_case "edge values match Printf" `Quick (fun () ->
        List.iter
          (fun n ->
            same_as_printf "add_int" add_int
              (Printf.sprintf "%d") n ~print:string_of_int)
          edge_ints;
        List.iter
          (fun x ->
            same_as_printf "add_g" add_g
              (Printf.sprintf "%g") x ~print:float_print;
            same_as_printf "add_h" add_h
              (Printf.sprintf "%h") x ~print:float_print;
            same_as_printf "wire" wire_num wire_num_ref x ~print:float_print)
          edge_floats);
    qtest ~count:2000 "add_int = %d" QCheck2.Gen.int (fun n ->
        add_int n = Printf.sprintf "%d" n);
    qtest ~count:5000 "add_g = %g" ~print:float_print float_gen (fun x ->
        add_g x = Printf.sprintf "%g" x);
    qtest ~count:5000 "add_h = %h" ~print:float_print float_gen (fun x ->
        add_h x = Printf.sprintf "%h" x);
    qtest ~count:5000 "wire number = %.0f or shortest of %.15g-%.17g"
      ~print:float_print float_gen (fun x -> wire_num x = wire_num_ref x);
  ]

(* ---- exporters against the Printf reference ---- *)

let same_exports ?(partial = false) ctx sched =
  let eq what got want =
    if got <> want then Alcotest.failf "%s: %s differs from Printf" ctx what
  in
  eq "fingerprint" (O.Export.fingerprint sched) (Export_ref.fingerprint sched);
  if not partial then begin
    eq "csv" (O.Export.to_csv sched) (Export_ref.to_csv sched);
    eq "chrome trace"
      (O.Export.to_chrome_trace sched)
      (Export_ref.to_chrome_trace sched);
    eq "scaled chrome trace"
      (O.Export.to_chrome_trace ~time_unit:0.37 sched)
      (Export_ref.to_chrome_trace ~time_unit:0.37 sched)
  end

let schedule ?(model = O.Comm_model.one_port) hname tb_name ~n ~ccr =
  let tb = O.Suite.find tb_name in
  let g = tb.O.Suite.build ~n:(max n tb.O.Suite.min_n) ~ccr in
  let entry = O.Registry.find hname in
  entry.O.Registry.scheduler (O.Params.of_model model)
    (O.Platform.paper_platform ()) g

(* One entry task placed as HEFT places it, the rest unplaced. *)
let partial_schedule () =
  let full = schedule "heft" "lu" ~n:8 ~ccr:1. in
  let g = O.Schedule.graph full in
  let s =
    O.Schedule.create ~graph:g ~platform:(O.Schedule.platform full)
      ~model:(O.Schedule.model full) ()
  in
  let entry = List.hd (O.Graph.entry_tasks g) in
  let pl = O.Schedule.placement_exn full entry in
  O.Schedule.place_task s ~task:entry ~proc:pl.O.Schedule.proc
    ~start:pl.O.Schedule.start;
  (s, g)

let export_tests =
  [
    Alcotest.test_case "6 testbeds x HEFT/ILHA match Printf" `Quick (fun () ->
        List.iter
          (fun tb_name ->
            List.iter
              (fun hname ->
                List.iter
                  (fun ccr ->
                    same_exports
                      (Printf.sprintf "%s/%s/ccr %g" hname tb_name ccr)
                      (schedule hname tb_name ~n:20 ~ccr))
                  [ 0.37; 10. ])
              [ "heft"; "ilha" ])
          O.Suite.names);
    Alcotest.test_case "heft-dup copy rows match Printf" `Quick (fun () ->
        let sched = schedule "heft-dup" "fork-join" ~n:100 ~ccr:1. in
        check_bool "has copies" true (O.Schedule.has_dups sched);
        same_exports "heft-dup/fork-join" sched);
    Alcotest.test_case "bsp phases match Printf" `Quick (fun () ->
        let model = O.Comm_model.bsp ~g:1. ~l:5. in
        let sched = schedule ~model "heft" "stencil" ~n:20 ~ccr:10. in
        check_bool "has phases" true (O.Schedule.n_phases sched > 0);
        same_exports "heft/stencil/bsp" sched);
    Alcotest.test_case "partial fingerprint matches Printf" `Quick (fun () ->
        let s, _ = partial_schedule () in
        check_bool "partial" false (O.Schedule.all_placed s);
        same_exports ~partial:true "partial" s);
    Alcotest.test_case "csv and trace reject a partial schedule" `Quick
      (fun () ->
        (* fingerprint renders unplaced tasks as "-"; the row formats have
           no such cell, so they name the first unplaced task *)
        let s, g = partial_schedule () in
        let unplaced =
          List.find
            (fun v -> O.Schedule.placement s v = None)
            (List.init (O.Graph.n_tasks g) Fun.id)
        in
        let msg = Printf.sprintf "Schedule: task %d not placed" unplaced in
        Alcotest.check_raises "to_csv" (Invalid_argument msg) (fun () ->
            ignore (O.Export.to_csv s));
        Alcotest.check_raises "to_chrome_trace" (Invalid_argument msg)
          (fun () -> ignore (O.Export.to_chrome_trace s)));
  ]

let suite = formatter_tests @ export_tests
