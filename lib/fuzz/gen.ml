open Vc_lang

(* Shape of the generated space.  The first parameter ranks; spawn
   sites may be nested in guards; edge operands (shift counts at and past
   the 63-bit saturation point, variable shift counts, guarded divisions
   by variables) are always on. *)
let max_arity = 3
let max_fanout = 3
let reducer_ops = [ Reducer.Sum; Reducer.Sum; Reducer.Min; Reducer.Max ]
let max_reducers = 2
let max_guard_depth = 2
let max_base_depth = 3
let max_cutoff = 2
let max_root = 6

(* ---- plain Random.State combinators (QCheck.Gen.t compatible) ---- *)

let int_range st lo hi = lo + Random.State.int st (hi - lo + 1)
let choose st = function
  | [] -> invalid_arg "Gen.choose: empty"
  | l -> List.nth l (Random.State.int st (List.length l))

(* weighted choice over thunks, so unchosen branches draw nothing *)
let freq st choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  let n = Random.State.int st total in
  let rec pick n = function
    | [] -> assert false
    | (w, f) :: rest -> if n < w then f () else pick (n - w) rest
  in
  pick n choices

let param_names = [ "a"; "b"; "c" ]
let reducer_names = [ "acc"; "aux" ]

(* Shift counts crossing every Builtins.shl/shr regime: in-range, the
   land-63 wrap boundary, and the >62 saturation plateau. *)
let edge_shift_counts = [ 0; 1; 2; 3; 31; 62; 63; 64; 100 ]

let rec gen_int_expr vars depth st =
  let leaf () =
    if Random.State.bool st then Ast.Int (int_range st 0 9)
    else Ast.Var (choose st vars)
  in
  if depth <= 0 then leaf ()
  else
    let sub () = gen_int_expr vars (depth - 1) st in
    let arith () =
      Ast.Binop (choose st [ Ast.Add; Ast.Sub; Ast.Mul ], sub (), sub ())
    in
    let bits () =
      Ast.Binop (choose st [ Ast.Band; Ast.Bor; Ast.Bxor ], sub (), sub ())
    in
    let shift () =
      let count =
        if Random.State.int st 4 = 0 then Ast.Var (choose st vars)
        else Ast.Int (choose st edge_shift_counts)
      in
      Ast.Binop (choose st [ Ast.Shl; Ast.Shr ], sub (), count)
    in
    let safe_div () =
      (* nonzero constant divisor: totally defined in every engine *)
      Ast.Binop (choose st [ Ast.Div; Ast.Mod ], sub (), Ast.Int (int_range st 1 7))
    in
    let call () =
      match int_range st 0 3 with
      | 0 -> Ast.Call ("min2", [ sub (); sub () ])
      | 1 -> Ast.Call ("max2", [ sub (); sub () ])
      | 2 -> Ast.Call ("abs", [ sub () ])
      | _ -> Ast.Call ("bit", [ sub (); Ast.Int (int_range st 0 6) ])
    in
    freq st
      [
        (4, leaf);
        (3, arith);
        (1, fun () -> Ast.Unop (Ast.Neg, sub ()));
        (1, call);
        (2, shift);
        (1, bits);
        (1, safe_div);
      ]

let gen_cmp vars depth st =
  Ast.Binop
    ( choose st [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ],
      gen_int_expr vars depth st,
      gen_int_expr vars depth st )

let rec gen_bool_expr vars depth st =
  if depth <= 0 then gen_cmp vars 1 st
  else
    let sub () = gen_bool_expr vars (depth - 1) st in
    let guarded_div () =
      (* division by a variable that may be zero, protected by the
         short-circuit operators every engine must honor *)
      let v = choose st vars in
      let q =
        Ast.Binop
          ( choose st [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ],
            Ast.Binop
              ( choose st [ Ast.Div; Ast.Mod ],
                gen_int_expr vars 1 st,
                Ast.Var v ),
            gen_int_expr vars 1 st )
      in
      if Random.State.bool st then
        Ast.Binop (Ast.Or, Ast.Binop (Ast.Eq, Ast.Var v, Ast.Int 0), q)
      else Ast.Binop (Ast.And, Ast.Binop (Ast.Ne, Ast.Var v, Ast.Int 0), q)
    in
    freq st
      [
        (4, fun () -> gen_cmp vars 2 st);
        (2, fun () -> Ast.Binop (choose st [ Ast.And; Ast.Or ], sub (), sub ()));
        (1, fun () -> Ast.Unop (Ast.Not, sub ()));
        (2, guarded_div);
      ]

(* ---- base case ---- *)

let rec gen_base_stmt ~fresh vars reducers depth st =
  let reduce depth () =
    Ast.Reduce (choose st reducers, gen_int_expr vars depth st)
  in
  if depth <= 0 then reduce 1 ()
  else
    let recur vars () = gen_base_stmt ~fresh vars reducers (depth - 1) st in
    freq st
      [
        (3, reduce 2);
        ( 2,
          fun () ->
            (* assign a fresh local, then a continuation that can read it *)
            let t = Printf.sprintf "t%d" (fresh ()) in
            Ast.Seq
              ( Ast.Assign (t, gen_int_expr vars 2 st),
                recur (t :: vars) () ) );
        ( 2,
          fun () ->
            Ast.If (gen_bool_expr vars 1 st, recur vars (), recur vars ()) );
        ( 1,
          fun () ->
            Ast.If (gen_bool_expr vars 1 st, recur vars (), Ast.Skip) );
        ( 1,
          fun () ->
            (* canonical bounded loop: i := 0; while i < c { body; i := i + 1; } *)
            let i = Printf.sprintf "i%d" (fresh ()) in
            let bound = int_range st 1 4 in
            Ast.Seq
              ( Ast.Assign (i, Ast.Int 0),
                Ast.While
                  ( Ast.Binop (Ast.Lt, Ast.Var i, Ast.Int bound),
                    Ast.Seq
                      ( recur (i :: vars) (),
                        Ast.Assign
                          (i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int 1)) ) ) )
        );
        (1, fun () -> Ast.Skip);
        (1, fun () -> Ast.Seq (recur vars (), recur vars ()));
      ]

(* ---- inductive case ---- *)

let gen_spawn vars params st =
  (* ranking position gets a - c syntactically so Termination certifies;
     ids are placeholders until the final renumber pass *)
  let rank = List.hd params in
  let decrement = int_range st 1 2 in
  let rest =
    List.map (fun _ -> gen_int_expr vars 2 st) (List.tl params)
  in
  Ast.Spawn
    {
      Ast.spawn_id = 0;
      spawn_args = Ast.Binop (Ast.Sub, Ast.Var rank, Ast.Int decrement) :: rest;
    }

let rec guard vars depth site st =
  if depth <= 0 then site
  else
    let c = gen_bool_expr vars 1 st in
    let wrapped =
      if Random.State.bool st then Ast.If (c, site, Ast.Skip)
      else Ast.If (c, Ast.Skip, site)
    in
    guard vars (depth - 1) wrapped st

let gen_inductive ~fresh vars params st =
  let n = int_range st 1 max_fanout in
  (* optional straight-line locals the spawn arguments may read *)
  let prefix, vars =
    if Random.State.int st 3 = 0 then
      let t = Printf.sprintf "t%d" (fresh ()) in
      ([ Ast.Assign (t, gen_int_expr vars 2 st) ], t :: vars)
    else ([], vars)
  in
  let sites = List.init n (fun _ -> gen_spawn vars params st) in
  let rec wrap = function
    | [] -> []
    | s1 :: s2 :: rest when Random.State.int st 4 = 0 ->
        (* both-branch conditional: one site per branch, ids stay
           consecutive because renumbering is syntactic *)
        Ast.If (gen_bool_expr vars 1 st, s1, s2) :: wrap rest
    | s :: rest ->
        guard vars (int_range st 0 max_guard_depth) s st :: wrap rest
  in
  Ast.seq (prefix @ wrap sites)

(* ---- canonical form ---- *)

(* The parser produces right-nested [Seq] chains with no [Skip] operands,
   so normalize generated statements to the same canonical form to make
   the print/parse round trip exact. *)
let rec normalize (s : Ast.stmt) : Ast.stmt =
  let rec flatten s acc =
    match s with
    | Ast.Seq (a, b) -> flatten a (flatten b acc)
    | Ast.Skip -> acc
    | s -> normalize_leaf s :: acc
  and normalize_leaf = function
    | Ast.If (c, a, b) -> Ast.If (c, normalize a, normalize b)
    | Ast.While (c, body) -> Ast.While (c, normalize body)
    | (Ast.Skip | Ast.Return | Ast.Assign _ | Ast.Reduce _ | Ast.Spawn _
      | Ast.Seq _) as s ->
        s
  in
  Ast.seq (flatten s [])

let renumber stmt =
  let next = ref 0 in
  let rec go = function
    | (Ast.Skip | Ast.Return | Ast.Assign _ | Ast.Reduce _) as s -> s
    | Ast.Seq (a, b) ->
        let a = go a in
        let b = go b in
        Ast.Seq (a, b)
    | Ast.If (c, a, b) ->
        let a = go a in
        let b = go b in
        Ast.If (c, a, b)
    | Ast.While (c, s) -> Ast.While (c, go s)
    | Ast.Spawn sp ->
        let id = !next in
        incr next;
        Ast.Spawn { sp with Ast.spawn_id = id }
  in
  go stmt

let size (p : Ast.program) =
  Ast.expr_size p.Ast.mth.Ast.is_base
  + Ast.stmt_size p.Ast.mth.Ast.base
  + Ast.stmt_size p.Ast.mth.Ast.inductive

(* ---- whole programs ---- *)

let program st =
  let arity = int_range st 1 max_arity in
  let params = List.filteri (fun i _ -> i < arity) param_names in
  let n_reducers = int_range st 1 max_reducers in
  let reducers =
    List.filteri (fun i _ -> i < n_reducers) reducer_names
    |> List.map (fun name ->
           { Ast.red_name = name; red_op = choose st reducer_ops })
  in
  let reducer_names = List.map (fun r -> r.Ast.red_name) reducers in
  let counter = ref 0 in
  let fresh () =
    let v = !counter in
    incr counter;
    v
  in
  let cutoff = int_range st 1 max_cutoff in
  let rank = List.hd params in
  let main_disjunct = Ast.Binop (Ast.Lt, Ast.Var rank, Ast.Int cutoff) in
  let is_base =
    (* an extra disjunct keeps the ranking certificate and diversifies the
       base/inductive split *)
    if Random.State.int st 4 = 0 then
      Ast.Binop (Ast.Or, main_disjunct, gen_cmp params 1 st)
    else main_disjunct
  in
  let base =
    normalize
      (gen_base_stmt ~fresh params reducer_names
         (int_range st 0 max_base_depth)
         st)
  in
  let inductive = renumber (normalize (gen_inductive ~fresh params params st)) in
  { Ast.reducers; mth = { Ast.name = "m"; params; is_base; base; inductive } }

let args (p : Ast.program) st =
  List.mapi
    (fun i _ -> if i = 0 then int_range st 0 max_root else int_range st (-3) 5)
    p.Ast.mth.Ast.params

let program_and_args st =
  let p = program st in
  (p, args p st)

let case ~seed ~index () =
  let st = Random.State.make [| 0x5eed; seed; index |] in
  program_and_args st
