type params = { vertices : int; edges : int; colors : int; seed : int }

let default = { vertices = 30; edges = 54; colors = 3; seed = 7 }
let paper = { vertices = 38; edges = 64; colors = 3; seed = 7 }

let graph { vertices; edges; seed; _ } =
  let rng = Rng.create ~seed in
  let seen = Hashtbl.create (edges * 2) in
  let out = ref [] in
  let count = ref 0 in
  while !count < edges do
    let u = Rng.int rng ~bound:vertices in
    let v = Rng.int rng ~bound:vertices in
    if u <> v then begin
      let key = (min u v, max u v) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := key :: !out;
        incr count
      end
    end
  done;
  Array.of_list (List.rev !out)

(* Adjacency restricted to already-colored (lower-index) neighbors. *)
let lower_neighbors ~vertices edge_list =
  let nbrs = Array.make vertices [] in
  Array.iter
    (fun (u, v) ->
      let lo = min u v and hi = max u v in
      nbrs.(hi) <- lo :: nbrs.(hi))
    edge_list;
  Array.map Array.of_list nbrs

let count_colorings ~colors ~vertices edge_list =
  let nbrs = lower_neighbors ~vertices edge_list in
  let coloring = Array.make vertices (-1) in
  let count = ref 0 in
  let rec go v =
    if v = vertices then incr count
    else
      for c = 0 to colors - 1 do
        if Array.for_all (fun u -> coloring.(u) <> c) nbrs.(v) then begin
          coloring.(v) <- c;
          go (v + 1);
          coloring.(v) <- -1
        end
      done
  in
  go 0;
  !count

let reference p = count_colorings ~colors:p.colors ~vertices:p.vertices (graph p)

(* Does a neighbor in [nbrs.(i..)] of frame [brow] already have [color]?
   A top-level loop, so a spawn allocates no closure. *)
let rec clashes blk brow nbrs ~color i =
  i < Array.length nbrs
  && (Vc_core.Block.get blk ~field:(nbrs.(i) + 1) ~row:brow = color
     || clashes blk brow nbrs ~color (i + 1))

let spec_of_edges ~colors ~vertices edge_list =
  let nbrs = lower_neighbors ~vertices edge_list in
  (* fields: next vertex to color, then one color per vertex (-1 = none) *)
  let fields = "v" :: List.init vertices (fun i -> Printf.sprintf "c%d" i) in
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 fields in
  let root = Array.make (vertices + 1) (-1) in
  root.(0) <- 0;
  let avg_deg =
    let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 nbrs in
    max 1 (total / max 1 vertices)
  in
  {
    Vc_core.Spec.name = "graphcol";
    description =
      Printf.sprintf "%d-colorings of a %d-vertex graph" colors vertices;
    schema;
    num_spawns = colors;
    roots = [ root ];
    reducers = [ ("colorings", Vc_lang.Reducer.Sum) ];
    is_base = (fun blk row -> Vc_core.Block.get blk ~field:0 ~row = vertices);
    exec_base =
      (fun reducers _blk _row -> Vc_lang.Reducer.reduce reducers "colorings" 1);
    spawn =
      (fun blk brow ~site ~dst ->
        let v = Vc_core.Block.get blk ~field:0 ~row:brow in
        if clashes blk brow nbrs.(v) ~color:site 0 then false
        else begin
          let child = Vc_core.Block.reserve dst in
          Vc_core.Block.set dst ~field:0 ~row:child (v + 1);
          for u = 0 to vertices - 1 do
            Vc_core.Block.set dst ~field:(u + 1) ~row:child
              (Vc_core.Block.get blk ~field:(u + 1) ~row:brow)
          done;
          Vc_core.Block.set dst ~field:(v + 1) ~row:child site;
          true
        end);
    insns =
      {
        check_insns = 2;
        base_insns = 2;
        inductive_insns = 2;
        spawn_insns = 2 + (3 * avg_deg); scalar_insns = 2 };
  }

let spec p = spec_of_edges ~colors:p.colors ~vertices:p.vertices (graph p)
