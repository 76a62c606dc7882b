type params = { n : int }

let default = { n = 30 }
let paper = { n = 45 }

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let reference { n } = fib n

let spec { n } =
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 [ "n" ] in
  {
    Vc_core.Spec.name = "fib";
    description = Printf.sprintf "fib(%d), sum reducer" n;
    schema;
    num_spawns = 2;
    roots = [ [| n |] ];
    reducers = [ ("result", Vc_lang.Reducer.Sum) ];
    is_base = (fun blk row -> Vc_core.Block.get blk ~field:0 ~row < 2);
    exec_base =
      (fun reducers blk row ->
        Vc_lang.Reducer.reduce reducers "result" (Vc_core.Block.get blk ~field:0 ~row));
    spawn =
      (fun blk row ~site ~dst ->
        let n = Vc_core.Block.get blk ~field:0 ~row in
        let child = Vc_core.Block.reserve dst in
        Vc_core.Block.set dst ~field:0 ~row:child (n - 1 - site);
        true);
    insns = { check_insns = 2; base_insns = 2; inductive_insns = 1; spawn_insns = 2; scalar_insns = 3 };
  }

let dsl_source =
  "reducer sum result;\n\n\
   def fib(n) =\n\
  \  if n < 2 then {\n\
  \    reduce(result, n);\n\
  \  } else {\n\
  \    spawn fib(n - 1);\n\
  \    spawn fib(n - 2);\n\
  \  }\n"

let dsl { n } = (Vc_lang.Parser.parse_string dsl_source, [ n ])
