type 'a t = { compare : 'a -> 'a -> int; heap : 'a Vec.t }

let create ~compare = { compare; heap = Vec.create () }
let length q = Vec.length q.heap
let is_empty q = Vec.is_empty q.heap

let swap h i j =
  let tmp = Vec.get h i in
  Vec.set h i (Vec.get h j);
  Vec.set h j tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.compare (Vec.get q.heap i) (Vec.get q.heap parent) < 0 then begin
      swap q.heap i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let n = Vec.length q.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && q.compare (Vec.get q.heap l) (Vec.get q.heap !smallest) < 0 then
    smallest := l;
  if r < n && q.compare (Vec.get q.heap r) (Vec.get q.heap !smallest) < 0 then
    smallest := r;
  if !smallest <> i then begin
    swap q.heap i !smallest;
    sift_down q !smallest
  end

let add q x =
  Vec.push q.heap x;
  sift_up q (Vec.length q.heap - 1)

let peek q = if is_empty q then None else Some (Vec.get q.heap 0)

let pop_exn q =
  if is_empty q then invalid_arg "Pqueue.pop_exn: empty";
  let top = Vec.get q.heap 0 in
  let tail = Vec.pop q.heap in
  if not (is_empty q) then begin
    Vec.set q.heap 0 tail;
    sift_down q 0
  end;
  top

let pop q = if is_empty q then None else Some (pop_exn q)

let of_list ~compare l =
  let q = create ~compare in
  List.iter (add q) l;
  q

let to_sorted_list q =
  let q' = { compare = q.compare; heap = Vec.copy q.heap } in
  let rec drain acc =
    match pop q' with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []

(* A monomorphic heap of small ints, served by the rank order of the
   list schedulers straight from their float ranks: rank descending, ties
   on the smaller int.  [Float.compare] on two unboxed array reads is
   inlined, so a sift step costs no closure call and no allocation, and
   ±0., infinities and NaN order exactly as [compare] on floats orders
   them.  Without ranks the heap serves ascending ints. *)
module Int_heap = struct
  type t = { rank : float array option; mutable heap : int array; mutable len : int }

  let create ?rank () = { rank; heap = Array.make 16 0; len = 0 }

  let length q = q.len
  let is_empty q = q.len = 0

  (* [before q a b]: [a] is served before [b]. *)
  let[@inline] before q a b =
    match q.rank with
    | None -> a < b
    | Some r ->
        let c = Float.compare r.(a) r.(b) in
        c > 0 || (c = 0 && a < b)

  let add q x =
    if q.len = Array.length q.heap then begin
      let bigger = Array.make (2 * q.len) 0 in
      Array.blit q.heap 0 bigger 0 q.len;
      q.heap <- bigger
    end;
    let h = q.heap in
    (* Sift up in place: move the hole, write once. *)
    let i = ref q.len in
    q.len <- q.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if before q x h.(parent) then begin
        h.(!i) <- h.(parent);
        i := parent
      end
      else continue := false
    done;
    h.(!i) <- x

  let peek q = if q.len = 0 then None else Some q.heap.(0)

  let pop_exn q =
    if q.len = 0 then invalid_arg "Pqueue.Int_heap.pop_exn: empty";
    let h = q.heap in
    let top = h.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      let x = h.(q.len) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let first = ref x and at = ref !i in
        if l < q.len && before q h.(l) !first then begin
          first := h.(l);
          at := l
        end;
        if r < q.len && before q h.(r) !first then begin
          first := h.(r);
          at := r
        end;
        if !at = !i then begin
          h.(!i) <- x;
          continue := false
        end
        else begin
          h.(!i) <- !first;
          i := !at
        end
      done
    end;
    top

  let pop q = if q.len = 0 then None else Some (pop_exn q)
end
