type params = { b0 : int; m : int; q : float; seed : int }

let default = { b0 = 500; m = 4; q = 0.2475; seed = 57 }
let paper = { b0 = 500; m = 4; q = 0.2499; seed = 19 }

(* A node is identified by its 31-bit hash state.  [has_children state]
   draws from the hash; child [i]'s state is a fresh hash of (state, i+1). *)

let threshold_of q = int_of_float (q *. 2147483648.0)

let has_children ~q state = Rng.mix32 state 0 < threshold_of q

let child_state state i = Rng.mix32 state (i + 1)

let walk { b0; m; q; seed } =
  let nodes = ref 0 in
  let leaves = ref 0 in
  let rec visit state =
    incr nodes;
    if has_children ~q state then
      for i = 0 to m - 1 do
        visit (child_state state i)
      done
    else incr leaves
  in
  (* the root always has b0 children *)
  incr nodes;
  for i = 0 to b0 - 1 do
    visit (child_state (seed land 0x7FFFFFFF) i)
  done;
  (!nodes, !leaves)

let reference p = snd (walk p)

let reference_nodes p = fst (walk p)

(* The root is the driver's job (as in the reference UTS codes): its [b0]
   children seed the initial thread block and the kernel's spawn bound is
   [m].  The engine therefore executes [reference_nodes - 1] tasks. *)
let spec { b0; m; q; seed } =
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "state" ] in
  {
    Vc_core.Spec.name = "uts";
    description =
      Printf.sprintf "UTS binomial tree (b0=%d, m=%d, q=%.4f, seed=%d)" b0 m q seed;
    schema;
    num_spawns = m;
    roots = List.init b0 (fun i -> [| child_state (seed land 0x7FFFFFFF) i |]);
    reducers = [ ("leaves", Vc_lang.Reducer.Sum) ];
    is_base =
      (fun blk row -> not (has_children ~q (Vc_core.Block.get blk ~field:0 ~row)));
    exec_base = (fun reducers _blk _row -> Vc_lang.Reducer.reduce reducers "leaves" 1);
    spawn =
      (fun blk row ~site ~dst ->
        let state = Vc_core.Block.get blk ~field:0 ~row in
        let child = Vc_core.Block.reserve dst in
        Vc_core.Block.set dst ~field:0 ~row:child (child_state state site);
        true);
    insns = { check_insns = 6; base_insns = 2; inductive_insns = 2; spawn_insns = 8; scalar_insns = 8 };
  }

(* DSL version: the same tree via the [mix32] builtin (the shared
   splitmix finalizer {!Vc_lang.Builtins.mix32}, which [Rng.mix32]
   aliases), so the program hashes identically to the native spec.  The
   threshold and branching factor are baked into the generated source;
   the [b0] host-computed roots arrive as root frames. *)
let dsl_source { m; q; _ } =
  let t = threshold_of q in
  let spawns =
    List.init m (fun i ->
        Printf.sprintf "    spawn uts(mix32(state, %d));\n" (i + 1))
  in
  Printf.sprintf
    "reducer sum leaves;\n\n\
     def uts(state) =\n\
    \  if mix32(state, 0) >= %d then {\n\
    \    reduce(leaves, 1);\n\
    \  } else {\n\
     %s\
    \  }\n"
    t
    (String.concat "" spawns)

let dsl ({ b0; seed; _ } as p) =
  ( Vc_lang.Parser.parse_string (dsl_source p),
    List.init b0 (fun i -> [| child_state (seed land 0x7FFFFFFF) i |]) )
