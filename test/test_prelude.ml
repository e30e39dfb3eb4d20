(* Vec, Pqueue, Stats, Rng, Table, Tagsort. *)

module O = Onesched
module Vec = Prelude.Vec
module Pqueue = Prelude.Pqueue
module Stats = Prelude.Stats
module Tagsort = Prelude.Tagsort
open Util

let vec_tests =
  [
    Alcotest.test_case "push/pop/last" `Quick (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ 1; 2; 3 ];
        check_int "len" 3 (Vec.length v);
        check_int "last" 3 (Vec.last v);
        check_int "pop" 3 (Vec.pop v);
        check_int "len after pop" 2 (Vec.length v));
    Alcotest.test_case "insert and remove keep order" `Quick (fun () ->
        let v = Vec.of_list [ 1; 3; 4 ] in
        Vec.insert v 1 2;
        Alcotest.(check (list int)) "inserted" [ 1; 2; 3; 4 ] (Vec.to_list v);
        Vec.remove v 0;
        Alcotest.(check (list int)) "removed" [ 2; 3; 4 ] (Vec.to_list v);
        Vec.insert v (Vec.length v) 9;
        Alcotest.(check (list int)) "appended" [ 2; 3; 4; 9 ] (Vec.to_list v));
    Alcotest.test_case "bounds checked" `Quick (fun () ->
        let v = Vec.of_list [ 1 ] in
        Alcotest.check_raises "get" (Invalid_argument "Vec: index out of bounds")
          (fun () -> ignore (Vec.get v 1));
        Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
          (fun () ->
            let e = Vec.create () in
            ignore (Vec.pop (e : int Vec.t))));
    qtest "of_list/to_list roundtrip" QCheck2.Gen.(list small_int) (fun l ->
        Vec.to_list (Vec.of_list l) = l);
    qtest "lower_bound is the sorted insertion point"
      QCheck2.Gen.(tup2 (list small_int) small_int)
      (fun (l, x) ->
        let sorted = List.sort compare l in
        let v = Vec.of_list sorted in
        let i = Vec.lower_bound v ~compare x in
        let before = List.filteri (fun j _ -> j < i) sorted in
        let after = List.filteri (fun j _ -> j >= i) sorted in
        List.for_all (fun y -> compare y x < 0) before
        && List.for_all (fun y -> compare y x >= 0) after);
    qtest "sort sorts" QCheck2.Gen.(list small_int) (fun l ->
        let v = Vec.of_list l in
        Vec.sort compare v;
        Vec.to_list v = List.sort compare l);
  ]

let pqueue_tests =
  [
    Alcotest.test_case "orders by priority" `Quick (fun () ->
        let q = Pqueue.of_list ~compare [ 5; 1; 4; 2; 3 ] in
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ]
          (Pqueue.to_sorted_list q);
        check_int "pop min" 1 (Pqueue.pop_exn q);
        check_int "peek next" 2 (Option.get (Pqueue.peek q)));
    Alcotest.test_case "empty behaviour" `Quick (fun () ->
        let q = Pqueue.create ~compare:Int.compare in
        check_bool "is_empty" true (Pqueue.is_empty q);
        check_bool "pop none" true (Pqueue.pop q = None));
    qtest ~count:200 "drains in sorted order" QCheck2.Gen.(list small_int)
      (fun l ->
        let q = Pqueue.of_list ~compare l in
        Pqueue.to_sorted_list q = List.sort compare l);
    qtest ~count:200 "interleaved adds keep the heap property"
      QCheck2.Gen.(list (tup2 bool small_int))
      (fun ops ->
        let q = Pqueue.create ~compare:Int.compare in
        let model = ref [] in
        List.for_all
          (fun (push, x) ->
            if push || !model = [] then begin
              Pqueue.add q x;
              model := List.sort compare (x :: !model);
              true
            end
            else begin
              let got = Pqueue.pop_exn q in
              let expect = List.hd !model in
              model := List.tl !model;
              got = expect
            end)
          ops);
  ]

let stats_tests =
  [
    Alcotest.test_case "means" `Quick (fun () ->
        check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
        check_float "harmonic" 3. (Stats.harmonic_mean [ 2.; 3.; 6. ]);
        check_float "stdev" 1. (Stats.stdev [ 1.; 2.; 3. ]));
    Alcotest.test_case "gcd/lcm" `Quick (fun () ->
        check_int "gcd" 6 (Stats.gcd 12 18);
        check_int "lcm" 36 (Stats.lcm 12 18);
        check_int "lcm_list paper" 30 (Stats.lcm_list [ 6; 10; 15 ]));
    Alcotest.test_case "percentile" `Quick (fun () ->
        check_float "median" 2. (Stats.percentile 50. [ 1.; 2.; 3. ]);
        check_float "p0" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
        check_float "p100" 3. (Stats.percentile 100. [ 3.; 1.; 2. ]));
    qtest "harmonic mean <= arithmetic mean"
      QCheck2.Gen.(list_size (int_range 1 10) (int_range 1 100))
      (fun l ->
        let fs = List.map float_of_int l in
        Stats.harmonic_mean fs <= Stats.mean fs +. 1e-9);
    qtest "fequal tolerates tiny error" QCheck2.Gen.(float_bound_exclusive 1e6)
      (fun x -> Stats.fequal x (x +. (x *. 1e-12)));
  ]

let rng_tests =
  [
    Alcotest.test_case "deterministic across creations" `Quick (fun () ->
        let a = O.Rng.create ~seed:7 and b = O.Rng.create ~seed:7 in
        for _ = 1 to 100 do
          check_int "same stream" (O.Rng.int a 1000) (O.Rng.int b 1000)
        done);
    Alcotest.test_case "split diverges" `Quick (fun () ->
        let a = O.Rng.create ~seed:7 in
        let b = O.Rng.split a in
        let xs = List.init 20 (fun _ -> O.Rng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> O.Rng.int b 1_000_000) in
        check_bool "different streams" true (xs <> ys));
    qtest ~count:300 "int respects bounds" QCheck2.Gen.(tup2 (int_bound 1000) (int_range 1 50))
      (fun (seed, bound) ->
        let rng = O.Rng.create ~seed in
        let x = O.Rng.int rng bound in
        x >= 0 && x < bound);
    qtest ~count:100 "shuffle is a permutation"
      QCheck2.Gen.(tup2 (int_bound 1000) (list small_int))
      (fun (seed, l) ->
        let rng = O.Rng.create ~seed in
        let a = Array.of_list l in
        O.Rng.shuffle rng a;
        List.sort compare (Array.to_list a) = List.sort compare l);
  ]

let table_tests =
  [
    Alcotest.test_case "arity enforced" `Quick (fun () ->
        let t = O.Table.create ~columns:[ "a"; "b" ] in
        Alcotest.check_raises "bad row"
          (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
            O.Table.add_row t [ "1" ]));
    Alcotest.test_case "renders all cells" `Quick (fun () ->
        let t = O.Table.create ~columns:[ "name"; "x" ] in
        O.Table.add_row t [ "alpha"; "1.5" ];
        O.Table.add_row t [ "b"; "22" ];
        let s = O.Table.to_string t in
        List.iter
          (fun cell ->
            check_bool cell true
              (String.length s > 0
              && contains s cell))
          [ "name"; "alpha"; "1.5"; "22" ]);
    Alcotest.test_case "csv escapes" `Quick (fun () ->
        let t = O.Table.create ~columns:[ "a" ] in
        O.Table.add_row t [ "x,y" ];
        check_bool "quoted" true (contains (O.Table.to_csv t) "\"x,y\""));
  ]

(* ---- Tagsort against List.stable_sort on the same complete order ---- *)

let tagsort_order (k1, f1, t1) (k2, f2, t2) =
  match Float.compare k1 k2 with
  | 0 -> ( match Float.compare f2 f1 with 0 -> Int.compare t1 t2 | c -> c)
  | c -> c

(* Keys and finishes from small grids, so equal keys, equal (key, fin)
   pairs and whole equal triples all occur; lengths cluster around the
   insertion-run threshold and its first merge widths. *)
let tagsort_gen =
  QCheck2.Gen.(
    let r = Tagsort.run in
    let* len =
      oneof
        [
          int_range 0 (2 * r + 2);
          int_range (r - 2) (r + 2);
          int_range ((4 * r) - 2) ((4 * r) + 2);
          int_range 0 300;
        ]
    in
    let* shape = int_bound 3 in
    let* elts =
      list_repeat len
        (triple
           (map float_of_int (int_bound 6))
           (map float_of_int (int_bound 3))
           (int_bound 20))
    in
    let sorted = List.stable_sort tagsort_order elts in
    return
      (match shape with
      | 0 -> elts
      | 1 -> sorted
      | 2 -> List.rev sorted
      | _ -> List.map (fun _ -> (1., 2., 3)) elts))

let tagsort_print elts =
  String.concat "; "
    (List.map (fun (k, f, t) -> Printf.sprintf "(%g,%g,%d)" k f t) elts)

let arrays_of elts =
  ( Array.of_list (List.map (fun (k, _, _) -> k) elts),
    Array.of_list (List.map (fun (_, f, _) -> f) elts),
    Array.of_list (List.map (fun (_, _, t) -> t) elts) )

let triples key fin tag =
  List.init (Array.length key) (fun i -> (key.(i), fin.(i), tag.(i)))

let tagsort_tests =
  [
    qtest ~count:500 "sort = List.stable_sort (key, fin desc, tag)"
      ~print:tagsort_print tagsort_gen (fun elts ->
        let key, fin, tag = arrays_of elts in
        Tagsort.sort ~key ~fin ~tag;
        triples key fin tag = List.stable_sort tagsort_order elts);
    qtest ~count:300 "sort_buckets sorts each bucket and nothing else"
      ~print:(fun (elts, cuts) ->
        tagsort_print elts ^ " | cuts "
        ^ String.concat "," (List.map string_of_int cuts))
      QCheck2.Gen.(
        let* elts = tagsort_gen in
        let len = List.length elts in
        let* upto = int_bound len in
        let* cuts = list_size (int_bound 6) (int_bound upto) in
        return (elts, List.sort compare cuts @ [ upto ]))
      (fun (elts, cuts) ->
        let key, fin, tag = arrays_of elts in
        let off = Array.of_list (0 :: cuts) in
        Tagsort.sort_buckets ~off ~key ~fin ~tag;
        let all = Array.of_list elts in
        let expect = ref [] in
        for b = Array.length off - 2 downto 0 do
          let lo = off.(b) and hi = off.(b + 1) in
          let bucket = Array.to_list (Array.sub all lo (hi - lo)) in
          expect := List.stable_sort tagsort_order bucket @ !expect
        done;
        let upto = off.(Array.length off - 1) in
        let tail =
          Array.to_list (Array.sub all upto (Array.length all - upto))
        in
        triples key fin tag = !expect @ tail);
    Alcotest.test_case "ties: longest first, then ascending tag" `Quick
      (fun () ->
        let key = [| 1.; 0.; 1.; 1.; 0. |]
        and fin = [| 2.; 5.; 9.; 2.; 5. |]
        and tag = [| 7; 4; 3; 1; 2 |] in
        Tagsort.sort ~key ~fin ~tag;
        Alcotest.(check (list int))
          "tags" [ 2; 4; 3; 1; 7 ] (Array.to_list tag));
  ]

let suite =
  vec_tests @ pqueue_tests @ stats_tests @ rng_tests @ table_tests
  @ tagsort_tests
