(* Timeline: unit tests on hand cases plus property tests against a naive
   reference implementation of earliest-gap search. *)

module O = Onesched
open Onesched_oracle
open Util

(* The single-timeline search: the joint core over one timeline, through
   the oracle's list front end. *)
let earliest_gap ?extra t ~after ~duration =
  Timeline_ref.earliest_gap_joint ?extra [ t ] ~after ~duration

(* Naive reference: scan candidate starts; candidates are [after] and every
   busy-interval finish. *)
let ref_earliest_gap busy ~after ~duration =
  if duration <= 0. then after
  else begin
    let blocks s =
      List.exists (fun (b0, b1) -> b0 < s +. duration && b1 > s) busy
    in
    let candidates =
      after :: List.filter_map (fun (_, f) -> if f >= after then Some f else None) busy
    in
    List.fold_left
      (fun best c -> if c >= after && (not (blocks c)) && c < best then c else best)
      infinity candidates
  end

let timeline_of intervals =
  let t = O.Timeline.create () in
  List.iter (fun (s, f) -> O.Timeline.add t ~start:s ~finish:f) intervals;
  t

(* Generate up to [max_n] disjoint intervals by splitting a walk; a zero
   gap makes two neighbours abut. *)
let walk_gen max_n =
  QCheck2.Gen.(
    let* n = int_bound max_n in
    let* gaps = list_size (return (2 * n)) (int_bound 5) in
    let rec build at acc = function
      | len :: gap :: rest ->
          let s = at and f = at +. float_of_int (1 + len) in
          build (f +. float_of_int gap) ((s, f) :: acc) rest
      | _ -> List.rev acc
    in
    return (build 0. [] gaps))

let intervals_gen = walk_gen 12

(* Timelines of up to a few hundred intervals: long enough that the
   cursor search's gallop from the tail takes every doubling step before
   it bisects its bracket. *)
let long_intervals_gen = walk_gen 300

(* An [after] before the first interval, inside the timeline or past
   its last finish, each a third of the time. *)
let after_gen busy =
  let first = match busy with [] -> 0 | (s, _) :: _ -> int_of_float s in
  let last = List.fold_left (fun _ (_, f) -> int_of_float f) first busy in
  QCheck2.Gen.(
    map float_of_int
      (oneof
         [
           int_range (first - 10) first;
           int_range first last;
           int_range last (last + 20);
         ]))

(* A long busy set, an [after] drawn against it, and a duration. *)
let long_query_gen =
  QCheck2.Gen.(
    let* busy = long_intervals_gen in
    let* after = after_gen busy in
    let* duration = int_range 1 12 in
    return (busy, after, float_of_int duration))

(* The array core over [ts] with [extra] (sorted, no zero-length
   interval) as its flat tentative run. *)
let joint_arr ts ~extra ~after ~duration =
  let n = List.length extra in
  let extra_s = Array.make (max n 1) 0. in
  let extra_f = Array.make (max n 1) 0. in
  List.iteri
    (fun i (s, f) ->
      extra_s.(i) <- s;
      extra_f.(i) <- f)
    extra;
  let k = Array.length ts in
  let q = [| after; duration |] in
  O.Timeline.earliest_gap_joint_arr ts ~k ~extra_s ~extra_f ~extra_len:n
    ~idx:(Array.make (max k 1) 0) ~q;
  q.(0)

(* The short busy sets of the original properties, with [after] in
   [0, 20] and an integer duration. *)
let short_query_gen =
  QCheck2.Gen.(
    map
      (fun (busy, after, duration) ->
        (busy, float_of_int after, float_of_int duration))
      (tup3 intervals_gen (int_bound 20) (int_range 1 8)))

let gap_matches_reference (busy, after, duration) =
  earliest_gap (timeline_of busy) ~after ~duration
  = ref_earliest_gap busy ~after ~duration

(* Deal round-robin: two committed timelines plus flat extras — exactly
   the shape the engine's arena feeds the core. *)
let arena_shape_matches_reference (busy, after, duration) =
  let parts = [| []; []; [] |] in
  List.iteri (fun i iv -> parts.(i mod 3) <- iv :: parts.(i mod 3)) busy;
  let extra = List.sort (fun (s1, _) (s2, _) -> compare s1 s2) parts.(2) in
  let ts = [| timeline_of parts.(0); timeline_of parts.(1) |] in
  joint_arr ts ~extra ~after ~duration
  = ref_earliest_gap busy ~after ~duration

let unit_tests =
  [
    Alcotest.test_case "empty timeline" `Quick (fun () ->
        let t = O.Timeline.create () in
        check_float "gap at after" 3.
          (earliest_gap t ~after:3. ~duration:5.);
        check_float "last finish" 0. (O.Timeline.last_finish t);
        check_int "intervals" 0 (O.Timeline.n_intervals t));
    Alcotest.test_case "fills gaps in order" `Quick (fun () ->
        let t = timeline_of [ (0., 2.); (4., 6.); (10., 12.) ] in
        check_float "fits in first hole" 2.
          (earliest_gap t ~after:0. ~duration:2.);
        check_float "skips small hole" 6.
          (earliest_gap t ~after:0. ~duration:3.);
        check_float "after everything" 12.
          (earliest_gap t ~after:0. ~duration:10.);
        check_float "respects after inside busy" 6.
          (earliest_gap t ~after:5. ~duration:2.));
    Alcotest.test_case "touching intervals allowed" `Quick (fun () ->
        let t = timeline_of [ (0., 2.) ] in
        O.Timeline.add t ~start:2. ~finish:4.;
        check_int "two intervals" 2 (O.Timeline.n_intervals t);
        check_float "busy" 4. (O.Timeline.total_busy t));
    Alcotest.test_case "overlap rejected" `Quick (fun () ->
        let t = timeline_of [ (0., 4.) ] in
        Alcotest.check_raises "overlap"
          (Invalid_argument "Timeline.add: overlapping busy interval")
          (fun () -> O.Timeline.add t ~start:3. ~finish:5.));
    Alcotest.test_case "zero-length add ignored" `Quick (fun () ->
        let t = O.Timeline.create () in
        O.Timeline.add t ~start:5. ~finish:5.;
        check_int "no interval" 0 (O.Timeline.n_intervals t));
    Alcotest.test_case "extra intervals constrain" `Quick (fun () ->
        let t = timeline_of [ (0., 2.) ] in
        check_float "without extra" 2.
          (earliest_gap t ~after:0. ~duration:2.);
        check_float "with extra" 6.
          (earliest_gap ~extra:[ (2., 6.) ] t ~after:0. ~duration:2.));
    Alcotest.test_case "joint gap over two timelines" `Quick (fun () ->
        let a = timeline_of [ (0., 3.) ] and b = timeline_of [ (4., 6.) ] in
        check_float "must avoid both" 6.
          (Timeline_ref.earliest_gap_joint [ a; b ] ~after:0. ~duration:2.);
        check_float "fits between" 3.
          (Timeline_ref.earliest_gap_joint [ a; b ] ~after:0. ~duration:1.));
    Alcotest.test_case "free_at" `Quick (fun () ->
        let t = timeline_of [ (2., 4.) ] in
        check_bool "before" true (O.Timeline.free_at t ~start:0. ~finish:2.);
        check_bool "inside" false (O.Timeline.free_at t ~start:3. ~finish:3.5);
        check_bool "straddle" false (O.Timeline.free_at t ~start:1. ~finish:3.);
        check_bool "after" true (O.Timeline.free_at t ~start:4. ~finish:9.));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let t = timeline_of [ (0., 1.) ] in
        let c = O.Timeline.copy t in
        O.Timeline.add c ~start:5. ~finish:6.;
        check_int "original untouched" 1 (O.Timeline.n_intervals t);
        check_int "copy grew" 2 (O.Timeline.n_intervals c));
  ]

let edge_case_tests =
  [
    Alcotest.test_case "extras entirely beyond the window are inert" `Quick
      (fun () ->
        let t = timeline_of [ (0., 2.) ] in
        (* The gap closes at 2; extras starting at 10 never matter. *)
        check_float "far extra ignored" 2.
          (earliest_gap ~extra:[ (10., 12.) ] t ~after:0. ~duration:3.);
        check_float "joint far extra ignored" 2.
          (Timeline_ref.earliest_gap_joint ~extra:[ (10., 12.) ] [ t ]
             ~after:0. ~duration:3.));
    Alcotest.test_case "touching endpoints leave the gap open" `Quick
      (fun () ->
        (* busy [0,2) and extra [4,6): [2,4) is exactly big enough. *)
        let t = timeline_of [ (0., 2.) ] in
        check_float "slides in between" 2.
          (earliest_gap ~extra:[ (4., 6.) ] t ~after:0. ~duration:2.);
        (* an extra touching the committed finish does not re-block it *)
        check_float "contiguous extra pushes past" 4.
          (earliest_gap ~extra:[ (2., 4.) ] t ~after:0. ~duration:2.));
    Alcotest.test_case "zero-length extras block nothing" `Quick (fun () ->
        let t = O.Timeline.create () in
        check_float "ahead of after" 0.
          (earliest_gap ~extra:[ (3., 3.) ] t ~after:0. ~duration:5.);
        check_float "joint, several" 1.
          (Timeline_ref.earliest_gap_joint
             ~extra:[ (2., 2.); (3., 3.); (4., 4.) ]
             [ timeline_of [ (0., 1.) ] ]
             ~after:0. ~duration:5.);
        (* mixed with a real blocker: only the real one counts *)
        check_float "mixed" 4.
          (earliest_gap ~extra:[ (1., 1.); (2., 4.) ] t ~after:0.
             ~duration:3.));
    Alcotest.test_case "interleaved committed and extra intervals" `Quick
      (fun () ->
        (* committed [0,1) [4,5), extras [1,2) [5,6): the only 2-wide gap
           before 6 is [2,4). *)
        let t = timeline_of [ (0., 1.); (4., 5.) ] in
        check_float "weaves through" 2.
          (earliest_gap ~extra:[ (1., 2.); (5., 6.) ] t ~after:0.
             ~duration:2.);
        check_float "forced past both" 6.
          (earliest_gap ~extra:[ (1., 2.); (5., 6.) ] t ~after:0.
             ~duration:3.));
    Alcotest.test_case "array core agrees on hand cases" `Quick (fun () ->
        let a = timeline_of [ (0., 3.) ] and b = timeline_of [ (4., 6.) ] in
        let probe ~extra ~after ~duration =
          let extra = List.filter (fun (s, f) -> f > s) extra in
          let extra =
            List.sort (fun (s1, _) (s2, _) -> compare s1 s2) extra
          in
          joint_arr [| a; b |] ~extra ~after ~duration
        in
        check_float "no extras" 6. (probe ~extra:[] ~after:0. ~duration:2.);
        check_float "fits between" 3. (probe ~extra:[] ~after:0. ~duration:1.);
        check_float "extra closes the slot" 6.
          (probe ~extra:[ (3., 4.) ] ~after:0. ~duration:1.);
        check_float "zero duration is after" 5.
          (probe ~extra:[] ~after:5. ~duration:0.));
  ]

let property_tests =
  [
    qtest ~count:500 "earliest_gap matches naive reference" short_query_gen
      gap_matches_reference;
    qtest ~count:500 "earliest_gap with extra = gap of union"
      QCheck2.Gen.(tup3 intervals_gen (int_bound 20) (int_range 1 8))
      (fun (busy, after, duration) ->
        (* Split the busy set arbitrarily: half committed, half extra. *)
        let committed, extra =
          List.partition (fun (s, _) -> int_of_float s mod 2 = 0) busy
        in
        let t = timeline_of committed in
        let after = float_of_int after and duration = float_of_int duration in
        earliest_gap ~extra t ~after ~duration
        = ref_earliest_gap busy ~after ~duration);
    qtest ~count:500 "joint gap = gap of merged busy sets"
      QCheck2.Gen.(tup3 intervals_gen (int_bound 20) (int_range 1 8))
      (fun (busy, after, duration) ->
        let evens, odds =
          List.partition (fun (s, _) -> int_of_float s mod 2 = 0) busy
        in
        let after = float_of_int after and duration = float_of_int duration in
        Timeline_ref.earliest_gap_joint
          [ timeline_of evens; timeline_of odds ]
          ~after ~duration
        = ref_earliest_gap busy ~after ~duration);
    qtest ~count:300 "three-way joint gap = gap of merged busy sets"
      QCheck2.Gen.(tup3 intervals_gen (int_bound 20) (int_range 1 8))
      (fun (busy, after, duration) ->
        (* deal intervals round-robin over three timelines *)
        let parts = [| []; []; [] |] in
        List.iteri (fun i iv -> parts.(i mod 3) <- iv :: parts.(i mod 3)) busy;
        let after = float_of_int after and duration = float_of_int duration in
        Timeline_ref.earliest_gap_joint
          (List.map timeline_of (Array.to_list parts))
          ~after ~duration
        = ref_earliest_gap busy ~after ~duration);
    qtest ~count:400 "array core matches naive reference with extras"
      short_query_gen arena_shape_matches_reference;
    qtest ~count:300 "zero-length extras never change the answer"
      QCheck2.Gen.(tup3 intervals_gen (int_bound 20) (int_range 1 8))
      (fun (busy, after, duration) ->
        let t = timeline_of busy in
        let after = float_of_int after and duration = float_of_int duration in
        let zeros =
          List.concat_map (fun (s, f) -> [ (s, s); (f, f) ]) busy
          @ [ (after +. 1., after +. 1.) ]
        in
        earliest_gap ~extra:zeros t ~after ~duration
        = earliest_gap t ~after ~duration
        && Timeline_ref.earliest_gap_joint ~extra:zeros [ t ] ~after ~duration
           = Timeline_ref.earliest_gap_joint [ t ] ~after ~duration);
    qtest ~count:300 "returned gap is actually free and minimal"
      QCheck2.Gen.(tup3 intervals_gen (int_bound 20) (int_range 1 8))
      (fun (busy, after, duration) ->
        let t = timeline_of busy in
        let after = float_of_int after and duration = float_of_int duration in
        let s = earliest_gap t ~after ~duration in
        s >= after
        && O.Timeline.free_at t ~start:s ~finish:(s +. duration)
        && (s = after
           || not (O.Timeline.free_at t ~start:(s -. 0.5) ~finish:(s -. 0.5 +. duration))
           ));
  ]

(* The same comparisons on long timelines, where the cursor search's
   start ranges from the head to past the tail. *)
let long_property_tests =
  [
    qtest ~count:300 "long timelines: earliest_gap matches naive reference"
      long_query_gen gap_matches_reference;
    qtest ~count:300
      "long timelines: array core matches naive reference with extras"
      long_query_gen arena_shape_matches_reference;
    qtest ~count:300 "long timelines: free_at agrees with the interval list"
      long_query_gen (fun (busy, after, duration) ->
        let t = timeline_of busy in
        O.Timeline.free_at t ~start:after ~finish:(after +. duration)
        = not
            (List.exists
               (fun (b0, b1) -> b0 < after +. duration && b1 > after)
               busy));
  ]

(* Tentative extras are a union of half-open intervals: cutting one into
   abutting pieces, or gluing abutting neighbours into one run (what the
   engine's arena does on every add), leaves the earliest gap as it
   was. *)
let split_extras cuts extra =
  List.concat
    (List.map2
       (fun c (s, f) ->
         let len = int_of_float (f -. s) in
         if c = 0 || len < 2 then [ (s, f) ]
         else
           let m = s +. float_of_int (1 + (c mod (len - 1))) in
           [ (s, m); (m, f) ])
       cuts extra)

let merge_extras extra =
  List.rev
    (List.fold_left
       (fun acc (s, f) ->
         match acc with
         | (s0, f0) :: rest when f0 = s -> (s0, f) :: rest
         | _ -> (s, f) :: acc)
       [] extra)

let coalescing_tests =
  [
    qtest ~count:400 "splitting or merging abutting extras keeps the gap"
      QCheck2.Gen.(
        let* busy, after, duration = long_query_gen in
        let* extra = long_intervals_gen in
        let* cuts =
          list_size (return (List.length extra)) (int_bound 4)
        in
        return (busy, extra, cuts, after, duration))
      (fun (busy, extra, cuts, after, duration) ->
        (* committed intervals shifted by half a unit so that they
           straddle the extras' integer endpoints *)
        let busy = List.map (fun (s, f) -> (s +. 0.5, f +. 0.5)) busy in
        let evens, odds =
          List.partition (fun (s, _) -> int_of_float s mod 2 = 0) busy
        in
        let ts = [| timeline_of evens; timeline_of odds |] in
        let gap extra = joint_arr ts ~extra ~after ~duration in
        let base = gap extra in
        base = gap (split_extras cuts extra)
        && base = gap (merge_extras extra)
        && base = ref_earliest_gap (busy @ extra) ~after ~duration);
  ]

let remove_tests =
  [
    Alcotest.test_case "remove frees the space for reuse" `Quick (fun () ->
        let t = timeline_of [ (0., 2.); (2., 3.); (4., 6.) ] in
        O.Timeline.remove t ~start:4. ~finish:6.;
        O.Timeline.remove t ~start:2. ~finish:3.;
        check_int "back to one" 1 (O.Timeline.n_intervals t);
        check_float "busy" 2. (O.Timeline.total_busy t);
        check_float "gap at the old finish" 2.
          (earliest_gap t ~after:0. ~duration:4.);
        (* the freed space is genuinely reusable *)
        O.Timeline.add t ~start:2. ~finish:6.;
        check_float "busy again" 6. (O.Timeline.total_busy t));
    Alcotest.test_case "removing every interval empties" `Quick (fun () ->
        let t = timeline_of [ (0., 2.); (5., 7.) ] in
        O.Timeline.remove t ~start:5. ~finish:7.;
        O.Timeline.remove t ~start:0. ~finish:2.;
        check_int "empty" 0 (O.Timeline.n_intervals t);
        check_float "last finish" 0. (O.Timeline.last_finish t);
        check_float "no busy time" 0. (O.Timeline.total_busy t));
    Alcotest.test_case "removes in reverse add order retrace every state"
      `Quick (fun () ->
        let adds = [ (3., 5.); (0., 1.); (8., 9.); (1., 3.); (6., 7.) ] in
        let t = O.Timeline.create () in
        let states =
          List.map
            (fun (s, f) ->
              let before = O.Timeline.intervals t in
              O.Timeline.add t ~start:s ~finish:f;
              before)
            adds
        in
        List.iter2
          (fun (s, f) before ->
            O.Timeline.remove t ~start:s ~finish:f;
            check_bool "state restored" true (O.Timeline.intervals t = before))
          (List.rev adds) (List.rev states));
    Alcotest.test_case "remove rejects a start with no interval" `Quick
      (fun () ->
        let t = timeline_of [ (0., 4.); (6., 8.) ] in
        Alcotest.check_raises "inside an interval"
          (Invalid_argument "Timeline.remove: no busy interval with that start")
          (fun () -> O.Timeline.remove t ~start:1. ~finish:4.);
        Alcotest.check_raises "past the last"
          (Invalid_argument "Timeline.remove: no busy interval with that start")
          (fun () -> O.Timeline.remove t ~start:9. ~finish:10.);
        check_int "nothing removed" 2 (O.Timeline.n_intervals t));
    Alcotest.test_case "remove rejects partial matches" `Quick (fun () ->
        let t = timeline_of [ (0., 4.) ] in
        Alcotest.check_raises "wrong finish"
          (Invalid_argument
             "Timeline.remove: finish does not match the busy interval")
          (fun () -> O.Timeline.remove t ~start:0. ~finish:3.));
  ]

(* Random interleavings of add and remove, checked against a twin
   rebuilt from scratch out of the model's surviving intervals.  A
   remove picks a live interval by index, so it may undo any earlier
   add, not only the latest. *)
let remove_property_tests =
  [
    qtest ~count:400 "random add/remove matches rebuilt twin"
      QCheck2.Gen.(
        list_size (int_bound 40)
          (tup3 (int_bound 5) (int_bound 40) (int_range 1 5)))
      (fun ops ->
        let t = O.Timeline.create () in
        let current = ref [] in
        List.iter
          (fun (tag, s, len) ->
            match (tag, !current) with
            | (4 | 5), [] -> ()
            | (4 | 5), live ->
                let ((start, finish) as iv) =
                  List.nth live (s mod List.length live)
                in
                O.Timeline.remove t ~start ~finish;
                current := List.filter (fun x -> x <> iv) live
            | _ ->
                let start = float_of_int s in
                let finish = float_of_int (s + len) in
                let blocked =
                  List.exists
                    (fun (b0, b1) -> b0 < finish && b1 > start)
                    !current
                in
                if not blocked then begin
                  O.Timeline.add t ~start ~finish;
                  current := (start, finish) :: !current
                end)
          ops;
        let twin =
          timeline_of
            (List.sort (fun (s1, _) (s2, _) -> compare s1 s2) !current)
        in
        O.Timeline.intervals t = O.Timeline.intervals twin
        && O.Timeline.total_busy t = O.Timeline.total_busy twin
        && O.Timeline.last_finish t = O.Timeline.last_finish twin
        && List.for_all
             (fun (after, duration) ->
               earliest_gap t ~after ~duration
               = earliest_gap twin ~after ~duration)
             [ (0., 1.); (0., 4.); (7., 2.); (20., 3.) ]);
  ]

(* Adds in a random order, then removals drawn from every interval, on
   timelines of up to a few hundred intervals: [add] and [remove] each
   locate their index through the same cursor search as the gap walk. *)
let long_remove_tests =
  [
    qtest ~count:200 "long timelines: add/remove match a twin"
      QCheck2.Gen.(
        let* busy = long_intervals_gen in
        let n = List.length busy in
        let* keys = list_size (return n) (int_bound 1_000_000) in
        let* drops = list_size (return n) (int_bound 3) in
        return (busy, keys, drops))
      (fun (busy, keys, drops) ->
        let order =
          List.map snd
            (List.sort compare (List.combine keys busy))
        in
        let dropped = List.filteri (fun i _ -> List.nth drops i = 0) order in
        let t = O.Timeline.create () in
        List.iter (fun (s, f) -> O.Timeline.add t ~start:s ~finish:f) order;
        List.iter
          (fun (s, f) -> O.Timeline.remove t ~start:s ~finish:f)
          dropped;
        let expect = List.filter (fun iv -> not (List.mem iv dropped)) busy in
        let twin = timeline_of expect in
        O.Timeline.intervals t = expect
        && O.Timeline.last_finish t = O.Timeline.last_finish twin
        && List.for_all
             (fun (s, f) -> not (O.Timeline.free_at t ~start:s ~finish:f))
             expect
        && List.for_all
             (fun (after, duration) ->
               earliest_gap t ~after ~duration
               = ref_earliest_gap expect ~after ~duration)
             [ (-3., 1.); (0., 4.); (17., 2.); (250., 3.); (900., 5.) ]);
  ]

let suite =
  unit_tests @ edge_case_tests @ property_tests @ long_property_tests
  @ coalescing_tests @ remove_tests @ remove_property_tests
  @ long_remove_tests
