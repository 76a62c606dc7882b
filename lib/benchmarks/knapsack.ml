type params = { n : int; capacity_ratio : float; seed : int }

let default = { n = 22; capacity_ratio = 0.5; seed = 1 }
let paper = { n = 31; capacity_ratio = 0.5; seed = 1 }

let items { n; seed; _ } =
  let rng = Rng.create ~seed in
  let weights = Array.init n (fun _ -> 1 + Rng.int rng ~bound:40) in
  let values = Array.init n (fun _ -> 1 + Rng.int rng ~bound:100) in
  (weights, values)

let capacity ({ capacity_ratio; _ } as p) =
  let weights, _ = items p in
  let total = Array.fold_left ( + ) 0 weights in
  int_of_float (float_of_int total *. capacity_ratio)

let reference p =
  let weights, values = items p in
  let cap = capacity p in
  let best = Array.make (cap + 1) 0 in
  Array.iteri
    (fun i w ->
      for c = cap downto w do
        best.(c) <- max best.(c) (best.(c - w) + values.(i))
      done)
    weights;
  best.(cap)

let spec p =
  let weights, values = items p in
  let cap = capacity p in
  let n = p.n in
  (* fields: item index, remaining capacity, accumulated value *)
  let schema =
    Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I16 [ "idx"; "cap"; "value" ]
  in
  {
    Vc_core.Spec.name = "knapsack";
    description = Printf.sprintf "0/1 knapsack, %d items, no pruning" n;
    schema;
    num_spawns = 2;
    roots = [ [| 0; cap; 0 |] ];
    reducers = [ ("best", Vc_lang.Reducer.Max) ];
    is_base = (fun blk row -> Vc_core.Block.get blk ~field:0 ~row = n);
    exec_base =
      (fun reducers blk row ->
        (* infeasible leaves (capacity overrun) contribute nothing *)
        if Vc_core.Block.get blk ~field:1 ~row >= 0 then
          Vc_lang.Reducer.reduce reducers "best"
            (Vc_core.Block.get blk ~field:2 ~row));
    spawn =
      (fun blk row ~site ~dst ->
        let idx = Vc_core.Block.get blk ~field:0 ~row in
        let c = Vc_core.Block.get blk ~field:1 ~row in
        let v = Vc_core.Block.get blk ~field:2 ~row in
        (* site 0 takes item [idx], every other site skips it *)
        let take = site = 0 in
        let child = Vc_core.Block.reserve dst in
        Vc_core.Block.set dst ~field:0 ~row:child (idx + 1);
        Vc_core.Block.set dst ~field:1 ~row:child (if take then c - weights.(idx) else c);
        Vc_core.Block.set dst ~field:2 ~row:child (if take then v + values.(idx) else v);
        true);
    insns = { check_insns = 2; base_insns = 4; inductive_insns = 2; spawn_insns = 4; scalar_insns = 4 };
  }
