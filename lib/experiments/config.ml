type t = {
  platform : Platform.t;
  params : Heuristics.Params.t;
  ccr : float;
  sizes : int list;
  seed : int;
}

let paper ?(scale = 1.) () =
  let size s = max 2 (int_of_float (Float.round (scale *. float_of_int s))) in
  {
    platform = Platform.paper_platform ();
    params = Heuristics.Params.default;
    ccr = 10.;
    sizes = List.map size [ 100; 200; 300; 400; 500 ];
    seed = 42;
  }

let model t = t.params.Heuristics.Params.model

let with_model t model =
  { t with params = Heuristics.Params.with_model t.params model }

let with_sizes t sizes = { t with sizes }
