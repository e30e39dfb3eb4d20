(* The list front end of the joint earliest-gap search: an allocating
   wrapper over [Timeline.earliest_gap_joint_arr], the array core the
   engine's arena calls.  The reference evaluator and the timeline tests
   price slots through it. *)

module Timeline = Onesched.Timeline

(* Zero-length tentative intervals block nothing (mirroring
   [Timeline.add], which ignores them); dropping them here keeps the gap
   walk from mistaking an empty interval for a blocker. *)
let sort_extra extra =
  match List.filter (fun (s, f) -> f > s) extra with
  | ([] | [ _ ]) as l -> l
  | l -> List.sort (fun (s1, _) (s2, _) -> compare s1 s2) l

(* [earliest_gap_joint ?extra ts ~after ~duration] is the earliest gap
   of [duration] at or after [after] in the union of the busy sets of
   [ts] plus the tentative intervals [extra] (in any order). *)
let earliest_gap_joint ?(extra = []) ts ~after ~duration =
  let ts = Array.of_list ts in
  let k = Array.length ts in
  let extra = sort_extra extra in
  let extra_len = List.length extra in
  let extra_s = Array.make (max extra_len 1) 0. in
  let extra_f = Array.make (max extra_len 1) 0. in
  List.iteri
    (fun i (s, f) ->
      extra_s.(i) <- s;
      extra_f.(i) <- f)
    extra;
  let q = [| after; duration |] in
  Timeline.earliest_gap_joint_arr ts ~k ~extra_s ~extra_f ~extra_len
    ~idx:(Array.make (max k 1) 0) ~q;
  q.(0)
