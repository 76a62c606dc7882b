type params = { n : int; k : int }

let default = { n = 24; k = 10 }
let paper = { n = 36; k = 13 }

let rec choose n k = if k = 0 || k = n then 1 else choose (n - 1) (k - 1) + choose (n - 1) k

let reference { n; k } = choose n k

let spec { n; k } =
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 [ "n"; "k" ] in
  {
    Vc_core.Spec.name = "binomial";
    description = Printf.sprintf "C(%d,%d) by Pascal recursion" n k;
    schema;
    num_spawns = 2;
    roots = [ [| n; k |] ];
    reducers = [ ("result", Vc_lang.Reducer.Sum) ];
    is_base =
      (fun blk row ->
        let k = Vc_core.Block.get blk ~field:1 ~row in
        k = 0 || k = Vc_core.Block.get blk ~field:0 ~row);
    exec_base = (fun reducers _blk _row -> Vc_lang.Reducer.reduce reducers "result" 1);
    spawn =
      (fun blk row ~site ~dst ->
        let n = Vc_core.Block.get blk ~field:0 ~row in
        let k = Vc_core.Block.get blk ~field:1 ~row in
        let child = Vc_core.Block.reserve dst in
        Vc_core.Block.set dst ~field:0 ~row:child (n - 1);
        Vc_core.Block.set dst ~field:1 ~row:child (if site = 0 then k - 1 else k);
        true);
    insns = { check_insns = 4; base_insns = 2; inductive_insns = 1; spawn_insns = 3; scalar_insns = 3 };
  }

let dsl_source =
  "reducer sum result;\n\n\
   def binomial(n, k) =\n\
  \  if k == 0 || k == n then {\n\
  \    reduce(result, 1);\n\
  \  } else {\n\
  \    spawn binomial(n - 1, k - 1);\n\
  \    spawn binomial(n - 1, k);\n\
  \  }\n"

let dsl { n; k } = (Vc_lang.Parser.parse_string dsl_source, [ n; k ])
