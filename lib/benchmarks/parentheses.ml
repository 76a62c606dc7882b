type params = { pairs : int }

let default = { pairs = 14 }
let paper = { pairs = 19 }

let reference { pairs } =
  (* Catalan recurrence: C_n = sum_i C_i * C_(n-1-i). *)
  let cat = Array.make (pairs + 1) 0 in
  cat.(0) <- 1;
  for n = 1 to pairs do
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + (cat.(i) * cat.(n - 1 - i))
    done;
    cat.(n) <- !s
  done;
  cat.(pairs)

let spec { pairs } =
  let n = pairs in
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 [ "open"; "close" ] in
  {
    Vc_core.Spec.name = "parentheses";
    description = Printf.sprintf "well-formed strings of %d parenthesis pairs" n;
    schema;
    num_spawns = 2;
    roots = [ [| 0; 0 |] ];
    reducers = [ ("result", Vc_lang.Reducer.Sum) ];
    is_base =
      (fun blk row ->
        Vc_core.Block.get blk ~field:0 ~row = n
        && Vc_core.Block.get blk ~field:1 ~row = n);
    exec_base = (fun reducers _blk _row -> Vc_lang.Reducer.reduce reducers "result" 1);
    spawn =
      (fun blk row ~site ~dst ->
        let o = Vc_core.Block.get blk ~field:0 ~row in
        let c = Vc_core.Block.get blk ~field:1 ~row in
        (* site 0 opens a parenthesis, every other site closes one *)
        let opens = site = 0 in
        if (if opens then o < n else c < o) then begin
          let child = Vc_core.Block.reserve dst in
          Vc_core.Block.set dst ~field:0 ~row:child (if opens then o + 1 else o);
          Vc_core.Block.set dst ~field:1 ~row:child (if opens then c else c + 1);
          true
        end
        else false);
    insns = { check_insns = 3; base_insns = 2; inductive_insns = 1; spawn_insns = 3; scalar_insns = 3 };
  }

let dsl_source =
  "reducer sum result;\n\n\
   def paren(n, o, c) =\n\
  \  if o == n && c == n then {\n\
  \    reduce(result, 1);\n\
  \  } else {\n\
  \    if o < n then {\n\
  \      spawn paren(n, o + 1, c);\n\
  \    }\n\
  \    if c < o then {\n\
  \      spawn paren(n, o, c + 1);\n\
  \    }\n\
  \  }\n"

let dsl { pairs } = (Vc_lang.Parser.parse_string dsl_source, [ pairs; 0; 0 ])
