open Ast

(* An expression can trap only through division/modulo (builtins are
   total).  Everything else is pure, so it can be deleted or absorbed by
   algebraic identities. *)
let rec can_trap = function
  | Int _ | Bool _ | Var _ -> false
  | Unop (_, e) -> can_trap e
  | Binop ((Div | Mod), _, _) -> true
  | Binop (_, a, b) -> can_trap a || can_trap b
  | Call (_, args) -> List.exists can_trap args

let rec fold_expr e =
  match e with
  | Int _ | Bool _ | Var _ -> e
  | Unop (op, inner) -> fold_unop op (fold_expr inner)
  | Binop (op, a, b) -> fold_binop op (fold_expr a) (fold_expr b)
  | Call (name, args) -> fold_call name (List.map fold_expr args)

and fold_unop op inner =
  match (op, inner) with
  | Neg, Int n -> Int (-n)
  | Neg, Unop (Neg, e) -> e
  | Not, Bool b -> Bool (not b)
  | Not, Unop (Not, e) -> e
  | (Neg | Not), _ -> Unop (op, inner)

and fold_binop op a b =
  match (op, a, b) with
  (* constant arithmetic (division/modulo only when safe) *)
  | Add, Int x, Int y -> Int (x + y)
  | Sub, Int x, Int y -> Int (x - y)
  | Mul, Int x, Int y -> Int (x * y)
  | Div, Int x, Int y when y <> 0 -> Int (x / y)
  | Mod, Int x, Int y when y <> 0 -> Int (x mod y)
  | Band, Int x, Int y -> Int (x land y)
  | Bor, Int x, Int y -> Int (x lor y)
  | Bxor, Int x, Int y -> Int (x lxor y)
  | Shl, Int x, Int y -> Int (Builtins.shl x y)
  | Shr, Int x, Int y -> Int (Builtins.shr x y)
  (* constant comparisons *)
  | Lt, Int x, Int y -> Bool (x < y)
  | Le, Int x, Int y -> Bool (x <= y)
  | Gt, Int x, Int y -> Bool (x > y)
  | Ge, Int x, Int y -> Bool (x >= y)
  | Eq, Int x, Int y -> Bool (x = y)
  | Ne, Int x, Int y -> Bool (x <> y)
  (* short-circuit identities; the right operand is only droppable or
     promotable when it cannot trap *)
  | And, Bool false, _ -> Bool false
  | And, Bool true, e -> e
  | And, e, Bool true -> e
  | And, e, Bool false when not (can_trap e) -> Bool false
  | Or, Bool true, _ -> Bool true
  | Or, Bool false, e -> e
  | Or, e, Bool false -> e
  | Or, e, Bool true when not (can_trap e) -> Bool true
  (* algebraic identities on trap-free operands *)
  | Add, e, Int 0 | Add, Int 0, e -> e
  | Sub, e, Int 0 -> e
  | Mul, e, Int 1 | Mul, Int 1, e -> e
  | Mul, e, Int 0 when not (can_trap e) -> Int 0
  | Mul, Int 0, e when not (can_trap e) -> Int 0
  | Div, e, Int 1 -> e
  | Band, e, Int 0 when not (can_trap e) -> Int 0
  | Band, Int 0, e when not (can_trap e) -> Int 0
  | Bor, e, Int 0 | Bor, Int 0, e -> e
  | Bxor, e, Int 0 | Bxor, Int 0, e -> e
  | Shl, e, Int 0 -> e
  | Shr, e, Int 0 -> e
  | _ -> Binop (op, a, b)

and fold_call name args =
  match (Builtins.find name, args) with
  | Some fn, _ when List.for_all (function Int _ -> true | _ -> false) args ->
      let vs = Array.of_list (List.map (function Int n -> n | _ -> 0) args) in
      if Array.length vs = Builtins.arity fn then Int (Builtins.apply fn vs)
      else Call (name, args)
  | _ -> Call (name, args)

let rec fold_stmt s =
  match s with
  | Skip | Return -> s
  | Seq (a, b) -> (
      match (fold_stmt a, fold_stmt b) with
      | Skip, b -> b
      | a, Skip -> a
      | Return, _ -> Return
      | a, b -> Seq (a, b))
  | Assign (x, e) -> Assign (x, fold_expr e)
  | If (c, a, b) -> (
      match fold_expr c with
      | Bool true -> fold_stmt a
      | Bool false -> fold_stmt b
      | c -> (
          match (fold_stmt a, fold_stmt b) with
          | Skip, Skip when not (can_trap c) -> Skip
          | a, b -> If (c, a, b)))
  | While (c, body) -> (
      match fold_expr c with
      | Bool false -> Skip
      | c -> While (c, fold_stmt body))
  | Reduce (r, e) -> Reduce (r, fold_expr e)
  | Spawn { spawn_id; spawn_args } ->
      Spawn { spawn_id; spawn_args = List.map fold_expr spawn_args }

module StringSet = Set.Make (String)

let rec expr_vars acc = function
  | Int _ | Bool _ -> acc
  | Var x -> StringSet.add x acc
  | Unop (_, e) -> expr_vars acc e
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Call (_, args) -> List.fold_left expr_vars acc args

(* Backward liveness; returns (rewritten statement, live-before). *)
let rec dce params live s =
  match s with
  | Skip -> (Skip, live)
  | Return -> (Return, live)
  | Seq (a, b) ->
      let b', live = dce params live b in
      let a', live = dce params live a in
      let s' =
        match (a', b') with Skip, b -> b | a, Skip -> a | a, b -> Seq (a, b)
      in
      (s', live)
  | Assign (x, e) ->
      if (not (StringSet.mem x live)) && not (can_trap e) then (Skip, live)
      else (s, expr_vars (StringSet.remove x live) e)
  | If (c, a, b) ->
      let a', live_a = dce params live a in
      let b', live_b = dce params live b in
      (If (c, a', b'), expr_vars (StringSet.union live_a live_b) c)
  | While (c, body) ->
      (* fixed point of live-before over loop iterations *)
      let rec iterate live_in =
        let _, live_body = dce params live_in body in
        let next = expr_vars (StringSet.union live_in live_body) c in
        if StringSet.equal next live_in then next else iterate next
      in
      let live_in = iterate (expr_vars live c) in
      let body', _ = dce params live_in body in
      (While (c, body'), live_in)
  | Reduce (_, e) -> (s, expr_vars live e)
  | Spawn { spawn_args; _ } -> (s, List.fold_left expr_vars live spawn_args)

let dead_locals (m : mth) =
  let params = StringSet.of_list m.params in
  let run body = fst (dce params StringSet.empty body) in
  { m with base = run m.base; inductive = run m.inductive }

(* Branch folding can delete spawn sites (a constant guard around a
   spawn).  Ids are syntactic positions — the validator requires them
   consecutive — so the surviving sites are renumbered in order. *)
let renumber_spawns s =
  let next = ref 0 in
  let rec go = function
    | (Skip | Return | Assign _ | Reduce _) as s -> s
    | Seq (a, b) ->
        let a = go a in
        let b = go b in
        Seq (a, b)
    | If (c, a, b) ->
        let a = go a in
        let b = go b in
        If (c, a, b)
    | While (c, body) -> While (c, go body)
    | Spawn sp ->
        let id = !next in
        incr next;
        Spawn { sp with spawn_id = id }
  in
  go s

let program (p : program) =
  let step (p : program) =
    let m = p.mth in
    let m =
      {
        m with
        is_base = fold_expr m.is_base;
        base = fold_stmt m.base;
        inductive = fold_stmt m.inductive;
      }
    in
    { p with mth = dead_locals m }
  in
  let rec fixpoint budget p =
    let p' = step p in
    if budget = 0 || p' = p then p' else fixpoint (budget - 1) p'
  in
  let p = fixpoint 10 p in
  let m = p.mth in
  { p with mth = { m with inductive = renumber_spawns m.inductive } }
