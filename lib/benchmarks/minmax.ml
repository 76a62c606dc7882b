type params = { size : int }

let default = { size = 3 }
let paper = { size = 4 }

type outcome = { x_wins : int; o_wins : int; draws : int }

(* Cells: 0 empty, 1 X, 2 O.  Player to move: 1 or 2. *)

let lines size =
  let n = size in
  let rows = List.init n (fun r -> List.init n (fun c -> (r * n) + c)) in
  let cols = List.init n (fun c -> List.init n (fun r -> (r * n) + c)) in
  let diag1 = [ List.init n (fun i -> (i * n) + i) ] in
  let diag2 = [ List.init n (fun i -> (i * n) + (n - 1 - i)) ] in
  List.map Array.of_list (rows @ cols @ diag1 @ diag2)

let winner ~lines board =
  let wins player =
    List.exists (fun line -> Array.for_all (fun i -> board.(i) = player) line) lines
  in
  if wins 1 then 1 else if wins 2 then 2 else 0

let full board = Array.for_all (fun c -> c <> 0) board

let reference { size } =
  let lines = lines size in
  let cells = size * size in
  let board = Array.make cells 0 in
  let tally = { x_wins = 0; o_wins = 0; draws = 0 } in
  let acc = ref tally in
  let rec go player =
    match winner ~lines board with
    | 1 -> acc := { !acc with x_wins = !acc.x_wins + 1 }
    | 2 -> acc := { !acc with o_wins = !acc.o_wins + 1 }
    | _ ->
        if full board then acc := { !acc with draws = !acc.draws + 1 }
        else
          for i = 0 to cells - 1 do
            if board.(i) = 0 then begin
              board.(i) <- player;
              go (3 - player);
              board.(i) <- 0
            end
          done
  in
  go 1;
  !acc

let minimax_value { size } =
  let lines = lines size in
  let cells = size * size in
  let board = Array.make cells 0 in
  let rec go player =
    match winner ~lines board with
    | 1 -> 1
    | 2 -> -1
    | _ ->
        if full board then 0
        else begin
          let best = ref (if player = 1 then -2 else 2) in
          for i = 0 to cells - 1 do
            if board.(i) = 0 then begin
              board.(i) <- player;
              let v = go (3 - player) in
              board.(i) <- 0;
              if player = 1 then best := max !best v else best := min !best v
            end
          done;
          !best
        end
  in
  go 1

(* [winner] and [full] on the board of frame [row] (cell [i] in field
   [i + 1]), read in place: top-level loops that build no board array
   and allocate no closure, so a task allocates nothing. *)
let rec owns blk row line player i =
  i >= Array.length line
  || (Vc_core.Block.get blk ~field:(line.(i) + 1) ~row = player
     && owns blk row line player (i + 1))

let rec wins blk row lines player k =
  k < Array.length lines
  && (owns blk row lines.(k) player 0 || wins blk row lines player (k + 1))

let frame_winner ~lines blk row =
  if wins blk row lines 1 0 then 1 else if wins blk row lines 2 0 then 2 else 0

let rec frame_full blk row ~cells i =
  i > cells
  || (Vc_core.Block.get blk ~field:i ~row <> 0 && frame_full blk row ~cells (i + 1))

let spec { size } =
  let lines = Array.of_list (lines size) in
  let cells = size * size in
  (* fields: player to move, then one field per cell *)
  let fields = "player" :: List.init cells (fun i -> Printf.sprintf "b%d" i) in
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 fields in
  let root = Array.make (cells + 1) 0 in
  root.(0) <- 1;
  {
    Vc_core.Spec.name = "minmax";
    description = Printf.sprintf "tic-tac-toe %dx%d outcome tally" size size;
    schema;
    num_spawns = cells;
    roots = [ root ];
    reducers =
      [
        ("x_wins", Vc_lang.Reducer.Sum);
        ("o_wins", Vc_lang.Reducer.Sum);
        ("draws", Vc_lang.Reducer.Sum);
      ];
    is_base =
      (fun blk row -> frame_winner ~lines blk row <> 0 || frame_full blk row ~cells 1);
    exec_base =
      (fun reducers blk row ->
        match frame_winner ~lines blk row with
        | 1 -> Vc_lang.Reducer.reduce reducers "x_wins" 1
        | 2 -> Vc_lang.Reducer.reduce reducers "o_wins" 1
        | _ -> Vc_lang.Reducer.reduce reducers "draws" 1);
    spawn =
      (fun blk brow ~site ~dst ->
        if Vc_core.Block.get blk ~field:(site + 1) ~row:brow <> 0 then false
        else begin
          let player = Vc_core.Block.get blk ~field:0 ~row:brow in
          let child = Vc_core.Block.reserve dst in
          Vc_core.Block.set dst ~field:0 ~row:child (3 - player);
          for i = 0 to cells - 1 do
            Vc_core.Block.set dst ~field:(i + 1) ~row:child
              (Vc_core.Block.get blk ~field:(i + 1) ~row:brow)
          done;
          Vc_core.Block.set dst ~field:(site + 1) ~row:child player;
          true
        end);
    insns =
      {
        check_insns = 3 * ((2 * size) + 2);
        base_insns = 6;
        inductive_insns = 2;
        spawn_insns = 3 + cells; scalar_insns = 60 };
  }
