let run = 16

(* Every key array is annotated [float array]: with a polymorphic element
   type, [<] and [=] would go through [caml_compare]. *)

(* [after key fin tag a b]: slot [a] sorts strictly after slot [b]. *)
let[@inline] after (key : float array) (fin : float array) (tag : int array)
    a b =
  let ka = key.(a) and kb = key.(b) in
  ka > kb
  || ka = kb
     &&
     let fa = fin.(a) and fb = fin.(b) in
     fa < fb || (fa = fb && tag.(a) > tag.(b))

(* Insertion sort of the slots [lo, hi). *)
let insertion (key : float array) (fin : float array) (tag : int array) lo hi
    =
  for i = lo + 1 to hi - 1 do
    if after key fin tag (i - 1) i then begin
      let k = key.(i) and f = fin.(i) and t = tag.(i) in
      (* shift every slot sorting after (k, f, t) one place right *)
      let j = ref (i - 1) in
      while
        !j >= lo
        &&
        let kj = key.(!j) in
        kj > k
        || kj = k
           &&
           let fj = fin.(!j) in
           fj < f || (fj = f && tag.(!j) > t)
      do
        key.(!j + 1) <- key.(!j);
        fin.(!j + 1) <- fin.(!j);
        tag.(!j + 1) <- tag.(!j);
        decr j
      done;
      key.(!j + 1) <- k;
      fin.(!j + 1) <- f;
      tag.(!j + 1) <- t
    end
  done

(* Merge the sorted runs [lo, mid) and [mid, hi): the left run moves to
   the scratch arrays and is merged back with the right one in place
   (the write cursor never passes the right run's read cursor).  Equal
   elements take the left one first. *)
let merge (key : float array) (fin : float array) (tag : int array)
    (sk : float array) (sf : float array) (st : int array) lo mid hi =
  let n1 = mid - lo in
  Array.blit key lo sk 0 n1;
  Array.blit fin lo sf 0 n1;
  Array.blit tag lo st 0 n1;
  let i = ref 0 and j = ref mid and d = ref lo in
  while !i < n1 && !j < hi do
    let kl = sk.(!i) and kr = key.(!j) in
    if
      kr < kl
      || kr = kl
         &&
         let fl = sf.(!i) and fr = fin.(!j) in
         fr > fl || (fr = fl && tag.(!j) < st.(!i))
    then begin
      key.(!d) <- kr;
      fin.(!d) <- fin.(!j);
      tag.(!d) <- tag.(!j);
      incr j
    end
    else begin
      key.(!d) <- kl;
      fin.(!d) <- sf.(!i);
      tag.(!d) <- st.(!i);
      incr i
    end;
    incr d
  done;
  (* what is left of the right run is already in place *)
  let rest = n1 - !i in
  Array.blit sk !i key !d rest;
  Array.blit sf !i fin !d rest;
  Array.blit st !i tag !d rest

let sorted key fin tag lo hi =
  let k = ref (lo + 1) in
  while !k < hi && not (after key fin tag (!k - 1) !k) do
    incr k
  done;
  !k >= hi

let sort_buckets ~off ~(key : float array) ~(fin : float array) ~tag =
  let nb = Array.length off - 1 in
  let widest = ref 0 in
  for b = 0 to nb - 1 do
    widest := max !widest (off.(b + 1) - off.(b))
  done;
  (* a left run is shorter than its bucket *)
  let scratch = if !widest > run then !widest else 0 in
  let sk = Array.create_float scratch in
  let sf = Array.create_float scratch in
  let st = Array.make scratch 0 in
  for b = 0 to nb - 1 do
    let lo = off.(b) and hi = off.(b + 1) in
    if hi - lo > 1 && not (sorted key fin tag lo hi) then begin
      let a = ref lo in
      while !a < hi do
        insertion key fin tag !a (min hi (!a + run));
        a := !a + run
      done;
      let width = ref run in
      while !width < hi - lo do
        let a = ref lo in
        while !a + !width < hi do
          let mid = !a + !width in
          let b = min hi (mid + !width) in
          (* runs already in order need no merge *)
          if after key fin tag (mid - 1) mid then
            merge key fin tag sk sf st !a mid b;
          a := b
        done;
        width := 2 * !width
      done
    end
  done

let sort ~key ~fin ~tag =
  sort_buckets ~off:[| 0; Array.length key |] ~key ~fin ~tag
