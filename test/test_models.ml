(* The model-ladder tests.

   The redesign of {!Comm_model} from a closed port-variant record into a
   regime family must not move a single bit of any port-rung schedule:
   the [goldens] below were fingerprinted from the pre-ladder code
   (paper platform, ccr 0.5, every registered heuristic, two sizes per
   testbed) and pin makespan, every placement and every communication
   event down to the float bit pattern ([%h]).

   The rest of the suite covers the new surface: [name]/[of_name]
   totality on everything [name] emits (including arbitrary-parameter
   BSP / latency rungs), smart-constructor guards, and a full
   heuristic x rung x testbed sweep that must come back Validate-clean. *)

module O = Onesched
open Util

let fingerprint sched =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "m=%h" (O.Schedule.makespan sched));
  let g = O.Schedule.graph sched in
  for v = 0 to O.Graph.n_tasks g - 1 do
    let pl = O.Schedule.placement_exn sched v in
    Buffer.add_string buf
      (Printf.sprintf ";t%d=%d:%h:%h" v pl.O.Schedule.proc pl.O.Schedule.start
         pl.O.Schedule.finish)
  done;
  List.iter
    (fun (c : O.Schedule.comm) ->
      Buffer.add_string buf
        (Printf.sprintf ";c%d=%d>%d:%h:%h" c.edge c.src_proc c.dst_proc c.start
           c.finish))
    (O.Schedule.comms sched);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (testbed, n, model, heuristic, MD5 of the fingerprint) captured from
   the pre-ladder code.  [n] is already clamped to the testbed's
   [min_n], so rows repeat the same instance where the clamp bites. *)
let goldens =
  [
    ("lu", 3, "macro-dataflow", "heft", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "ilha", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "cpop", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "pct", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "bil", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "gdl", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "etf", "8757107570652ae062cfde505411b149");
    ("lu", 3, "macro-dataflow", "ilha-auto", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "heft", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "ilha", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "cpop", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "pct", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "bil", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "gdl", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "etf", "8757107570652ae062cfde505411b149");
    ("lu", 3, "one-port", "ilha-auto", "8757107570652ae062cfde505411b149");
    ("lu", 9, "macro-dataflow", "heft", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "macro-dataflow", "ilha", "96a0b9b0845feb1fa5cdee2d5143fc36");
    ("lu", 9, "macro-dataflow", "cpop", "ee134faccf878b87e71e145295abdcb3");
    ("lu", 9, "macro-dataflow", "pct", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "macro-dataflow", "bil", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "macro-dataflow", "gdl", "591c335fbc765b57838afba3eb963a09");
    ("lu", 9, "macro-dataflow", "etf", "b85118fbf834c3f0f7734c9ed1cf01e3");
    ("lu", 9, "macro-dataflow", "ilha-auto", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "one-port", "heft", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "one-port", "ilha", "96a0b9b0845feb1fa5cdee2d5143fc36");
    ("lu", 9, "one-port", "cpop", "ee134faccf878b87e71e145295abdcb3");
    ("lu", 9, "one-port", "pct", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "one-port", "bil", "10b935bf3578b15249f4812c88769060");
    ("lu", 9, "one-port", "gdl", "591c335fbc765b57838afba3eb963a09");
    ("lu", 9, "one-port", "etf", "0e6501ca53930ecb57c9a71d0a694716");
    ("lu", 9, "one-port", "ilha-auto", "10b935bf3578b15249f4812c88769060");
    ("laplace", 3, "macro-dataflow", "heft", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "macro-dataflow", "ilha", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "macro-dataflow", "cpop", "c7a6d3fd007757d1b6269fb02d886fe4");
    ("laplace", 3, "macro-dataflow", "pct", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "macro-dataflow", "bil", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "macro-dataflow", "gdl", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "macro-dataflow", "etf", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "macro-dataflow", "ilha-auto", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "heft", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "ilha", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "cpop", "8b35ffaf8f2a274a3f5b0a195103615d");
    ("laplace", 3, "one-port", "pct", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "bil", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "gdl", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "etf", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 3, "one-port", "ilha-auto", "f1be46eb25b2a4eaa903cdde7e7c2efc");
    ("laplace", 9, "macro-dataflow", "heft", "211810f81605c6c7a09c7b3013132f35");
    ("laplace", 9, "macro-dataflow", "ilha", "2c26662ce59b820ae55117566ad0346f");
    ("laplace", 9, "macro-dataflow", "cpop", "9e59a53d9d8bc706939d78733948a9d1");
    ("laplace", 9, "macro-dataflow", "pct", "211810f81605c6c7a09c7b3013132f35");
    ("laplace", 9, "macro-dataflow", "bil", "c48ed09aa789e7689e3ad3ab7697300a");
    ("laplace", 9, "macro-dataflow", "gdl", "211810f81605c6c7a09c7b3013132f35");
    ("laplace", 9, "macro-dataflow", "etf", "a68f6aa781f944d9b48ffc98e6fbfa47");
    ("laplace", 9, "macro-dataflow", "ilha-auto", "cf5ec0f5c2cc111c722b145de81cd879");
    ("laplace", 9, "one-port", "heft", "de9cf0eb2eced08d17e06e04e2fa34a4");
    ("laplace", 9, "one-port", "ilha", "1f719f32f0ef95b7f6e8b80f39c4d6b1");
    ("laplace", 9, "one-port", "cpop", "eeb27e2f7afbfb48c26edaca31cb5644");
    ("laplace", 9, "one-port", "pct", "de9cf0eb2eced08d17e06e04e2fa34a4");
    ("laplace", 9, "one-port", "bil", "e85547f0eb5b365dbd6111460aed8e6b");
    ("laplace", 9, "one-port", "gdl", "1f87e213fce3a1af215959be306da825");
    ("laplace", 9, "one-port", "etf", "8d51be754d189c4086f23bbddec26c72");
    ("laplace", 9, "one-port", "ilha-auto", "de9cf0eb2eced08d17e06e04e2fa34a4");
    ("stencil", 3, "macro-dataflow", "heft", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "ilha", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "cpop", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "pct", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "bil", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "gdl", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "etf", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "macro-dataflow", "ilha-auto", "4d52cf596ad416c2aab3c781f9428d37");
    ("stencil", 3, "one-port", "heft", "d2a92a186cf94a9718927fc45d96ceca");
    ("stencil", 3, "one-port", "ilha", "d2a92a186cf94a9718927fc45d96ceca");
    ("stencil", 3, "one-port", "cpop", "f3d2ce2d84b198b8874059448e47a47b");
    ("stencil", 3, "one-port", "pct", "d2a92a186cf94a9718927fc45d96ceca");
    ("stencil", 3, "one-port", "bil", "d2a92a186cf94a9718927fc45d96ceca");
    ("stencil", 3, "one-port", "gdl", "aafde29fbdb25dfdec7866d2cb228ad1");
    ("stencil", 3, "one-port", "etf", "aafde29fbdb25dfdec7866d2cb228ad1");
    ("stencil", 3, "one-port", "ilha-auto", "d2a92a186cf94a9718927fc45d96ceca");
    ("stencil", 9, "macro-dataflow", "heft", "f7d7c263cebd5775b91d823492a38625");
    ("stencil", 9, "macro-dataflow", "ilha", "f7d7c263cebd5775b91d823492a38625");
    ("stencil", 9, "macro-dataflow", "cpop", "3a03430b52d49862218b66b0556837a9");
    ("stencil", 9, "macro-dataflow", "pct", "f7d7c263cebd5775b91d823492a38625");
    ("stencil", 9, "macro-dataflow", "bil", "327f6b685a3da4972ac2c175a937468d");
    ("stencil", 9, "macro-dataflow", "gdl", "f7d7c263cebd5775b91d823492a38625");
    ("stencil", 9, "macro-dataflow", "etf", "ebc66e7ad339861c12667ca9ac2332e1");
    ("stencil", 9, "macro-dataflow", "ilha-auto", "f7d7c263cebd5775b91d823492a38625");
    ("stencil", 9, "one-port", "heft", "c82d255b436847d2a0a1cfe85425711f");
    ("stencil", 9, "one-port", "ilha", "c82d255b436847d2a0a1cfe85425711f");
    ("stencil", 9, "one-port", "cpop", "f35ae031b6c55cd98134b561e4eba9be");
    ("stencil", 9, "one-port", "pct", "c82d255b436847d2a0a1cfe85425711f");
    ("stencil", 9, "one-port", "bil", "57c53580c97a98f85f6c67bb70a559e9");
    ("stencil", 9, "one-port", "gdl", "cbd13e153c76841f82da15b788719d63");
    ("stencil", 9, "one-port", "etf", "dbfed7106e644f04459af3199cfa9b83");
    ("stencil", 9, "one-port", "ilha-auto", "c82d255b436847d2a0a1cfe85425711f");
    ("fork-join", 3, "macro-dataflow", "heft", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "ilha", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "cpop", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "pct", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "bil", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "gdl", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "etf", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "macro-dataflow", "ilha-auto", "345d9a58e7e285870444b9578df9054a");
    ("fork-join", 3, "one-port", "heft", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 3, "one-port", "ilha", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 3, "one-port", "cpop", "e7cdfd863558f4f9b27329e179efe113");
    ("fork-join", 3, "one-port", "pct", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 3, "one-port", "bil", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 3, "one-port", "gdl", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 3, "one-port", "etf", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 3, "one-port", "ilha-auto", "bfbd5fc182cab288a44ed95b70520a46");
    ("fork-join", 9, "macro-dataflow", "heft", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "macro-dataflow", "ilha", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "macro-dataflow", "cpop", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "macro-dataflow", "pct", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "macro-dataflow", "bil", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "macro-dataflow", "gdl", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "macro-dataflow", "etf", "9038fba31a9374adda8dcfa5b4eab80e");
    ("fork-join", 9, "macro-dataflow", "ilha-auto", "87a890d37a478f20869bf69391ab2eb0");
    ("fork-join", 9, "one-port", "heft", "68bd9603aee594197e0a61d51016cdcf");
    ("fork-join", 9, "one-port", "ilha", "68bd9603aee594197e0a61d51016cdcf");
    ("fork-join", 9, "one-port", "cpop", "c50dc205b169d510a76f5a9ae44e6315");
    ("fork-join", 9, "one-port", "pct", "68bd9603aee594197e0a61d51016cdcf");
    ("fork-join", 9, "one-port", "bil", "68bd9603aee594197e0a61d51016cdcf");
    ("fork-join", 9, "one-port", "gdl", "68bd9603aee594197e0a61d51016cdcf");
    ("fork-join", 9, "one-port", "etf", "c5eb774429d986e690beffd95f143c56");
    ("fork-join", 9, "one-port", "ilha-auto", "68bd9603aee594197e0a61d51016cdcf");
    ("doolittle", 3, "macro-dataflow", "heft", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "ilha", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "cpop", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "pct", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "bil", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "gdl", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "etf", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "macro-dataflow", "ilha-auto", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "heft", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "ilha", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "cpop", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "pct", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "bil", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "gdl", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "etf", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 3, "one-port", "ilha-auto", "a7d5297c2d6d88044049d0860f2b1f1a");
    ("doolittle", 9, "macro-dataflow", "heft", "426fae21bdf2f92230318d370e3bc4cf");
    ("doolittle", 9, "macro-dataflow", "ilha", "426fae21bdf2f92230318d370e3bc4cf");
    ("doolittle", 9, "macro-dataflow", "cpop", "fddee4106b8b66e491aea315116a0500");
    ("doolittle", 9, "macro-dataflow", "pct", "426fae21bdf2f92230318d370e3bc4cf");
    ("doolittle", 9, "macro-dataflow", "bil", "426fae21bdf2f92230318d370e3bc4cf");
    ("doolittle", 9, "macro-dataflow", "gdl", "426fae21bdf2f92230318d370e3bc4cf");
    ("doolittle", 9, "macro-dataflow", "etf", "a9b73a3f6f044e45ec18a687f845de33");
    ("doolittle", 9, "macro-dataflow", "ilha-auto", "426fae21bdf2f92230318d370e3bc4cf");
    ("doolittle", 9, "one-port", "heft", "10f542036bfdf98fbe03f8bb74673b8f");
    ("doolittle", 9, "one-port", "ilha", "10f542036bfdf98fbe03f8bb74673b8f");
    ("doolittle", 9, "one-port", "cpop", "254cea21267b5a5a263b00b54004948b");
    ("doolittle", 9, "one-port", "pct", "10f542036bfdf98fbe03f8bb74673b8f");
    ("doolittle", 9, "one-port", "bil", "10f542036bfdf98fbe03f8bb74673b8f");
    ("doolittle", 9, "one-port", "gdl", "bc0b015a95aa0a9c5c7ae9cc46b7d1c4");
    ("doolittle", 9, "one-port", "etf", "93700517db0938696b340a38d20851e2");
    ("doolittle", 9, "one-port", "ilha-auto", "10f542036bfdf98fbe03f8bb74673b8f");
    ("ldmt", 3, "macro-dataflow", "heft", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "ilha", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "cpop", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "pct", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "bil", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "gdl", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "etf", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "macro-dataflow", "ilha-auto", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "heft", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "ilha", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "cpop", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "pct", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "bil", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "gdl", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "etf", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 3, "one-port", "ilha-auto", "2836512ef6cbe2d1735ccf334b28b865");
    ("ldmt", 9, "macro-dataflow", "heft", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "macro-dataflow", "ilha", "3f7315361dd660af29a8745a26651dee");
    ("ldmt", 9, "macro-dataflow", "cpop", "29e3c475b80bed734ab7df9539732db2");
    ("ldmt", 9, "macro-dataflow", "pct", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "macro-dataflow", "bil", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "macro-dataflow", "gdl", "6a6c49fd45ecfc9567050a126dfd2ede");
    ("ldmt", 9, "macro-dataflow", "etf", "e46357de92234f6efcd597da153d2c61");
    ("ldmt", 9, "macro-dataflow", "ilha-auto", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "one-port", "heft", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "one-port", "ilha", "3f7315361dd660af29a8745a26651dee");
    ("ldmt", 9, "one-port", "cpop", "29e3c475b80bed734ab7df9539732db2");
    ("ldmt", 9, "one-port", "pct", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "one-port", "bil", "b7a5ada595fb290b174acc90de6e4bb6");
    ("ldmt", 9, "one-port", "gdl", "6a6c49fd45ecfc9567050a126dfd2ede");
    ("ldmt", 9, "one-port", "etf", "42c98ba4393bc5a24a7ccc29d550ba0b");
    ("ldmt", 9, "one-port", "ilha-auto", "b7a5ada595fb290b174acc90de6e4bb6");
  ]

let golden_tests =
  [
    Alcotest.test_case "port-rung schedules are bit-identical to the goldens"
      `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        let cache = Hashtbl.create 16 in
        List.iter
          (fun (tb_name, n, mname, hname, expect) ->
            let g =
              match Hashtbl.find_opt cache (tb_name, n) with
              | Some g -> g
              | None ->
                  let tb = O.Suite.find tb_name in
                  let g = tb.O.Suite.build ~n ~ccr:0.5 in
                  Hashtbl.add cache (tb_name, n) g;
                  g
            in
            let params = O.Params.of_model (O.Comm_model.of_name mname) in
            let entry = O.Registry.find hname in
            let sched = entry.O.Registry.scheduler params plat g in
            Alcotest.(check string)
              (Printf.sprintf "%s n=%d %s %s" tb_name n mname hname)
              expect (fingerprint sched))
          goldens);
  ]

let name_tests =
  [
    Alcotest.test_case "of_name inverts name over the whole ladder" `Quick
      (fun () ->
        List.iter
          (fun m ->
            let m' = O.Comm_model.of_name (O.Comm_model.name m) in
            check_bool (O.Comm_model.name m) true (O.Comm_model.equal m m'))
          O.Comm_model.all);
    (* Quarter-integer parameters survive a %g round-trip exactly, so the
       property can demand structural equality rather than epsilon. *)
    qtest ~count:200 "of_name inverts name for arbitrary-parameter rungs"
      QCheck2.Gen.(
        let* a = int_range 0 1000 in
        let* b = int_range 0 1000 in
        let* bsp = bool in
        return (a, b, bsp))
      (fun (a, b, bsp) ->
        let q i = float_of_int i /. 4. in
        let m =
          if bsp then O.Comm_model.bsp ~g:(q a) ~l:(q b)
          else O.Comm_model.latency_overhead ~o:(q a) ~l:(q b)
        in
        O.Comm_model.equal m (O.Comm_model.of_name (O.Comm_model.name m)));
    Alcotest.test_case "of_name rejects unknown names with the valid ones"
      `Quick (fun () ->
        (match O.Comm_model.of_name "bogus" with
        | _ -> Alcotest.fail "of_name accepted \"bogus\""
        | exception Invalid_argument msg ->
            check_bool "lists macro-dataflow" true (contains msg "macro-dataflow");
            check_bool "lists the bsp form" true (contains msg "bsp:g=");
            check_bool "lists the logp form" true (contains msg "logp:o="));
        match O.Comm_model.of_name "bsp:g=-1:L=2" with
        | _ -> Alcotest.fail "of_name accepted a negative g"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "model names are comma-free (CSV safety)" `Quick
      (fun () ->
        List.iter
          (fun m ->
            check_bool (O.Comm_model.name m) false
              (String.contains (O.Comm_model.name m) ','))
          O.Comm_model.all);
  ]

let constructor_tests =
  [
    Alcotest.test_case "smart constructors reject invalid requests" `Quick
      (fun () ->
        let raises f =
          match f () with
          | (_ : O.Comm_model.t) -> false
          | exception Invalid_argument _ -> true
        in
        check_bool "bsp ~g:(-1.)" true
          (raises (fun () -> O.Comm_model.bsp ~g:(-1.) ~l:0.));
        check_bool "latency_overhead ~l:(-0.5)" true
          (raises (fun () -> O.Comm_model.latency_overhead ~o:1. ~l:(-0.5)));
        check_bool "no_overlap on a BSP rung" true
          (raises (fun () -> O.Comm_model.no_overlap (O.Comm_model.bsp ~g:1. ~l:1.)));
        check_bool "with_link_contention on a latency rung" true
          (raises (fun () ->
               O.Comm_model.with_link_contention
                 (O.Comm_model.latency_overhead ~o:1. ~l:1.)));
        match
          O.Comm_model.hop_span (O.Comm_model.bsp ~g:1. ~l:1.) ~data:1.
            ~hop_cost:1.
        with
        | (_ : float) -> Alcotest.fail "hop_span priced a BSP hop"
        | exception Invalid_argument _ -> ());
  ]

(* Every heuristic, on every rung of the ladder, must schedule every
   testbed to a Validate-clean schedule — the ladder's acceptance sweep. *)
let ladder_tests =
  [
    Alcotest.test_case "every heuristic x rung x testbed validates" `Quick
      (fun () ->
        let plat = O.Platform.paper_platform () in
        List.iter
          (fun (tb : O.Suite.t) ->
            let n = max 6 tb.O.Suite.min_n in
            let g = tb.O.Suite.build ~n ~ccr:0.5 in
            List.iter
              (fun model ->
                let params = O.Params.of_model model in
                List.iter
                  (fun (e : O.Registry.entry) ->
                    let sched = e.O.Registry.scheduler params plat g in
                    match O.Validate.check sched with
                    | Ok () -> ()
                    | Error es ->
                        Alcotest.failf "%s on %s under %s: %s"
                          e.O.Registry.name tb.O.Suite.name
                          (O.Comm_model.name model) (List.hd es))
                  O.Registry.all)
              O.Comm_model.all)
          O.Suite.all);
  ]

(* (testbed, n, model, heuristic, [Export.fingerprint]) of the
   compare-then-commit heuristics on the two rungs the [goldens] leave
   out: under BSP every commit with remote inputs carries a comm-phase
   window, under latency+overhead each hop's endpoint overheads.  Kept
   apart from [goldens], which were fingerprinted before the ladder
   existed. *)
let off_port_goldens =
  [
    ("lu", 9, "bsp:g=1:L=5", "gdl", "408c96a652fa26c390d0ee61da787b86");
    ("lu", 9, "bsp:g=1:L=5", "etf", "408c96a652fa26c390d0ee61da787b86");
    ("lu", 9, "bsp:g=1:L=5", "bil", "408c96a652fa26c390d0ee61da787b86");
    ("lu", 9, "logp:o=1:L=2", "gdl", "a7c1bb1c02a6f6d89775c0ac1bfeafd9");
    ("lu", 9, "logp:o=1:L=2", "etf", "7aded2c2d9fd90de4468ae7f7a7ff791");
    ("lu", 9, "logp:o=1:L=2", "bil", "2a5063e51f2cea4cdafb6877fa61f4c5");
    ("laplace", 9, "bsp:g=1:L=5", "gdl", "c86b6de1b287b4c380b7c1810ce150d0");
    ("laplace", 9, "bsp:g=1:L=5", "etf", "c86b6de1b287b4c380b7c1810ce150d0");
    ("laplace", 9, "bsp:g=1:L=5", "bil", "c86b6de1b287b4c380b7c1810ce150d0");
    ("laplace", 9, "logp:o=1:L=2", "gdl", "d7a410042e3f092d0717963004fd3361");
    ("laplace", 9, "logp:o=1:L=2", "etf", "0ff0dc01f3e3a67d63f7569943412210");
    ("laplace", 9, "logp:o=1:L=2", "bil", "0576c770c669136d4b13f618ec2bb5ba");
    ("stencil", 9, "bsp:g=1:L=5", "gdl", "8951668dabe72032e41c2a3331b76f12");
    ("stencil", 9, "bsp:g=1:L=5", "etf", "735b304387c5b563a67298bd7a3f46a9");
    ("stencil", 9, "bsp:g=1:L=5", "bil", "1d12d5ec716abc9c9ba4734f0e8766b3");
    ("stencil", 9, "logp:o=1:L=2", "gdl", "0fcb38711988c99efbf6b91d6a746b81");
    ("stencil", 9, "logp:o=1:L=2", "etf", "96650639d3b6fa588b1275b8844f5616");
    ("stencil", 9, "logp:o=1:L=2", "bil", "0fcb38711988c99efbf6b91d6a746b81");
    ("fork-join", 9, "bsp:g=1:L=5", "gdl", "591213d60bf5fd633e036aec9b345cca");
    ("fork-join", 9, "bsp:g=1:L=5", "etf", "591213d60bf5fd633e036aec9b345cca");
    ("fork-join", 9, "bsp:g=1:L=5", "bil", "591213d60bf5fd633e036aec9b345cca");
    ("fork-join", 9, "logp:o=1:L=2", "gdl", "9a37946dd43c54e57b80e5db11379c1d");
    ("fork-join", 9, "logp:o=1:L=2", "etf", "5eb9c08f43051cd534b0392592df3037");
    ("fork-join", 9, "logp:o=1:L=2", "bil", "9a37946dd43c54e57b80e5db11379c1d");
    ("doolittle", 9, "bsp:g=1:L=5", "gdl", "999f17d41d4d40e73ebe0233ab042b3d");
    ("doolittle", 9, "bsp:g=1:L=5", "etf", "6e7c47b01125913b63241c8732ddb55c");
    ("doolittle", 9, "bsp:g=1:L=5", "bil", "53d517147bcc1b9ca4618d25f1746dd2");
    ("doolittle", 9, "logp:o=1:L=2", "gdl", "e3ad8b3dfacdc9661e032748e90bdc39");
    ("doolittle", 9, "logp:o=1:L=2", "etf", "8e6c1570bb6ee0bca5d1e3caa054f1ed");
    ("doolittle", 9, "logp:o=1:L=2", "bil", "e68be0f7d5d1a98b519aa663fed6145c");
    ("ldmt", 9, "bsp:g=1:L=5", "gdl", "94aae48406e9e2107d64ebd0b1a506c9");
    ("ldmt", 9, "bsp:g=1:L=5", "etf", "2d62b37260e732a63ed47c06ff2486e9");
    ("ldmt", 9, "bsp:g=1:L=5", "bil", "2d62b37260e732a63ed47c06ff2486e9");
    ("ldmt", 9, "logp:o=1:L=2", "gdl", "76cb6dad6dfac4f3509329541f1d2fe1");
    ("ldmt", 9, "logp:o=1:L=2", "etf", "c359ba482cff443b9c9881879d1e0535");
    ("ldmt", 9, "logp:o=1:L=2", "bil", "09732758140e3f05ee95fb7a8693a03a");
  ]

let off_port_golden_tests =
  [
    Alcotest.test_case "BSP and LogP schedules of GDL, ETF, BIL are pinned"
      `Quick (fun () ->
        let plat = O.Platform.paper_platform () in
        List.iter
          (fun (tb_name, n, mname, hname, expect) ->
            let g = (O.Suite.find tb_name).O.Suite.build ~n ~ccr:0.5 in
            let params = O.Params.of_model (O.Comm_model.of_name mname) in
            let sched =
              (O.Registry.find hname).O.Registry.scheduler params plat g
            in
            Alcotest.(check string)
              (Printf.sprintf "%s n=%d %s %s" tb_name n mname hname)
              expect (O.Export.fingerprint sched))
          off_port_goldens);
  ]

let suite =
  golden_tests @ off_port_golden_tests @ name_tests @ constructor_tests
  @ ladder_tests
