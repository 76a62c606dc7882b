type params = { n : int }

let default = { n = 12 }
let paper = { n = 13 }

let known_solutions =
  [| 1; 1; 0; 0; 2; 10; 4; 40; 92; 352; 724; 2680; 14200; 73712 |]

(* Does any queen in board rows [r..row-1] of frame [brow] attack
   (row, col)?  A top-level loop, so a spawn allocates no closure. *)
let rec attacks blk brow ~row ~col r =
  if r >= row then false
  else
    let qc = Vc_core.Block.get blk ~field:(r + 1) ~row:brow in
    if qc = col || abs (qc - col) = row - r then true
    else attacks blk brow ~row ~col (r + 1)

let reference { n } =
  let count = ref 0 in
  let full = (1 lsl n) - 1 in
  let rec go cols d1 d2 =
    if cols = full then incr count
    else
      let free = lnot (cols lor d1 lor d2) land full in
      let rec place free =
        if free <> 0 then begin
          let bit = free land -free in
          go (cols lor bit) ((d1 lor bit) lsl 1) ((d2 lor bit) lsr 1);
          place (free lxor bit)
        end
      in
      place free
  in
  go 0 0 0;
  !count

(* Frame: row count in field 0, then one field per board row holding the
   column of its queen (unused rows hold -1) — the char-array layout that
   gives the paper its 16-wide vectors and its cache-heavy lookups. *)
let spec { n } =
  let fields = "row" :: List.init n (fun i -> Printf.sprintf "q%d" i) in
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 fields in
  let root = Array.make (n + 1) (-1) in
  root.(0) <- 0;
  {
    Vc_core.Spec.name = "nqueens";
    description = Printf.sprintf "%d-queens solution count" n;
    schema;
    num_spawns = n;
    roots = [ root ];
    reducers = [ ("solutions", Vc_lang.Reducer.Sum) ];
    is_base = (fun blk row -> Vc_core.Block.get blk ~field:0 ~row = n);
    exec_base =
      (fun reducers _blk _row -> Vc_lang.Reducer.reduce reducers "solutions" 1);
    spawn =
      (fun blk brow ~site ~dst ->
        let row = Vc_core.Block.get blk ~field:0 ~row:brow in
        if attacks blk brow ~row ~col:site 0 then false
        else begin
          let child = Vc_core.Block.reserve dst in
          Vc_core.Block.set dst ~field:0 ~row:child (row + 1);
          for r = 0 to n - 1 do
            Vc_core.Block.set dst ~field:(r + 1) ~row:child
              (Vc_core.Block.get blk ~field:(r + 1) ~row:brow)
          done;
          Vc_core.Block.set dst ~field:(row + 1) ~row:child site;
          true
        end);
    insns =
      {
        check_insns = 2;
        base_insns = 2;
        inductive_insns = 2;
        spawn_insns = 2 + (3 * (n / 2)); scalar_insns = 3 };
  }

(* DSL version: the classic bitmask formulation — [cols] has a bit per
   occupied column, [d1]/[d2] carry the diagonal attack masks shifted one
   row per level.  One conditional spawn site per column, in column
   order, so the task tree (and the per-site block partition the blocked
   scheduler sees) is identical to [spec]'s: both spawn exactly the
   non-attacked columns of each placement, in the same order. *)
let dsl_source { n } =
  let full = (1 lsl n) - 1 in
  let spawns =
    List.init n (fun k ->
        let bit = 1 lsl k in
        Printf.sprintf
          "    if (free & %d) != 0 then {\n\
          \      spawn queens(cols | %d, ((d1 | %d) << 1), ((d2 | %d) >> 1));\n\
          \    }\n"
          bit bit bit bit)
  in
  Printf.sprintf
    "reducer sum solutions;\n\n\
     def queens(cols, d1, d2) =\n\
    \  if cols == %d then {\n\
    \    reduce(solutions, 1);\n\
    \  } else {\n\
    \    free := ((cols | d1 | d2) ^ %d) & %d;\n\
     %s\
    \  }\n"
    full full full
    (String.concat "" spawns)

let dsl p = (Vc_lang.Parser.parse_string (dsl_source p), [ 0; 0; 0 ])
