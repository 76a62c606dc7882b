open Vc_lang

let valid (p : Ast.program) =
  match Validate.check p with
  | Error _ -> false
  | Ok _ -> (
      Ast.num_spawns p >= 1
      &&
      match Termination.check p with
      | Termination.Terminates _ -> true
      | Termination.Unknown _ -> false)

(* The shrink measure: AST size plus declaration count (so dropping a
   reducer or parameter is progress), then literal magnitude (so Int
   halving is progress at equal size).  Every accepted edit strictly
   decreases it, which bounds the greedy loop. *)

let rec expr_weight = function
  | Ast.Int n -> min (abs n) 1_000_000
  | Ast.Bool _ | Ast.Var _ -> 0
  | Ast.Unop (_, e) -> expr_weight e
  | Ast.Binop (_, a, b) -> expr_weight a + expr_weight b
  | Ast.Call (_, args) -> List.fold_left (fun acc a -> acc + expr_weight a) 0 args

let rec stmt_weight = function
  | Ast.Skip | Ast.Return -> 0
  | Ast.Seq (a, b) -> stmt_weight a + stmt_weight b
  | Ast.Assign (_, e) | Ast.Reduce (_, e) -> expr_weight e
  | Ast.If (c, a, b) -> expr_weight c + stmt_weight a + stmt_weight b
  | Ast.While (c, s) -> expr_weight c + stmt_weight s
  | Ast.Spawn { Ast.spawn_args; _ } ->
      List.fold_left (fun acc a -> acc + expr_weight a) 0 spawn_args

let measure (p : Ast.program) args =
  let m = p.Ast.mth in
  ( Gen.size p + List.length p.Ast.reducers + List.length m.Ast.params,
    expr_weight m.Ast.is_base + stmt_weight m.Ast.base
    + stmt_weight m.Ast.inductive
    + List.fold_left (fun acc v -> acc + min (abs v) 1_000_000) 0 args )

(* ---- candidate edits ---- *)

let rec expr_shrinks (e : Ast.expr) : Ast.expr list =
  let at_root =
    match e with
    | Ast.Int 0 | Ast.Bool _ | Ast.Var _ -> []
    | Ast.Int n ->
        Ast.Int 0 :: (if abs n >= 2 then [ Ast.Int (n / 2) ] else [])
    | Ast.Unop (_, a) -> [ a ]
    | Ast.Binop (_, a, b) -> [ a; b ]
    | Ast.Call (_, args) -> args
  in
  let inner =
    match e with
    | Ast.Int _ | Ast.Bool _ | Ast.Var _ -> []
    | Ast.Unop (op, a) -> List.map (fun a' -> Ast.Unop (op, a')) (expr_shrinks a)
    | Ast.Binop (op, a, b) ->
        List.map (fun a' -> Ast.Binop (op, a', b)) (expr_shrinks a)
        @ List.map (fun b' -> Ast.Binop (op, a, b')) (expr_shrinks b)
    | Ast.Call (f, args) ->
        List.concat
          (List.mapi
             (fun i a ->
               List.map
                 (fun a' ->
                   Ast.Call (f, List.mapi (fun j b -> if i = j then a' else b) args))
                 (expr_shrinks a))
             args)
  in
  at_root @ inner

let rec stmt_shrinks (s : Ast.stmt) : Ast.stmt list =
  let at_root =
    match s with
    | Ast.Skip -> []
    | Ast.Return | Ast.Assign _ | Ast.Reduce _ | Ast.Spawn _ -> [ Ast.Skip ]
    | Ast.Seq (a, b) -> [ a; b ]
    | Ast.If (_, a, b) -> [ a; b ]
    | Ast.While (_, body) -> [ body; Ast.Skip ]
  in
  let inner =
    match s with
    | Ast.Skip | Ast.Return -> []
    | Ast.Seq (a, b) ->
        List.map (fun a' -> Ast.Seq (a', b)) (stmt_shrinks a)
        @ List.map (fun b' -> Ast.Seq (a, b')) (stmt_shrinks b)
    | Ast.If (c, a, b) ->
        List.map (fun c' -> Ast.If (c', a, b)) (expr_shrinks c)
        @ List.map (fun a' -> Ast.If (c, a', b)) (stmt_shrinks a)
        @ List.map (fun b' -> Ast.If (c, a, b')) (stmt_shrinks b)
    | Ast.While (c, body) ->
        List.map (fun c' -> Ast.While (c', body)) (expr_shrinks c)
        @ List.map (fun b' -> Ast.While (c, b')) (stmt_shrinks body)
    | Ast.Assign (x, e) -> List.map (fun e' -> Ast.Assign (x, e')) (expr_shrinks e)
    | Ast.Reduce (x, e) -> List.map (fun e' -> Ast.Reduce (x, e')) (expr_shrinks e)
    | Ast.Spawn sp ->
        List.concat
          (List.mapi
             (fun i a ->
               List.map
                 (fun a' ->
                   Ast.Spawn
                     {
                       sp with
                       Ast.spawn_args =
                         List.mapi
                           (fun j b -> if i = j then a' else b)
                           sp.Ast.spawn_args;
                     })
                 (expr_shrinks a))
             sp.Ast.spawn_args)
  in
  at_root @ inner

(* variable-usage scan; [skip_arg] ignores one spawn-argument position
   (the one a parameter drop would delete) *)
let rec expr_uses name = function
  | Ast.Var v -> v = name
  | Ast.Int _ | Ast.Bool _ -> false
  | Ast.Unop (_, e) -> expr_uses name e
  | Ast.Binop (_, a, b) -> expr_uses name a || expr_uses name b
  | Ast.Call (_, args) -> List.exists (expr_uses name) args

let rec stmt_uses ?skip_arg name = function
  | Ast.Skip | Ast.Return -> false
  | Ast.Seq (a, b) -> stmt_uses ?skip_arg name a || stmt_uses ?skip_arg name b
  | Ast.Assign (_, e) | Ast.Reduce (_, e) -> expr_uses name e
  | Ast.If (c, a, b) ->
      expr_uses name c || stmt_uses ?skip_arg name a || stmt_uses ?skip_arg name b
  | Ast.While (c, s) -> expr_uses name c || stmt_uses ?skip_arg name s
  | Ast.Spawn { Ast.spawn_args; _ } ->
      List.exists
        (fun (i, a) ->
          (match skip_arg with Some j -> i <> j | None -> true)
          && expr_uses name a)
        (List.mapi (fun i a -> (i, a)) spawn_args)

let rec drop_spawn_arg j = function
  | (Ast.Skip | Ast.Return | Ast.Assign _ | Ast.Reduce _) as s -> s
  | Ast.Seq (a, b) -> Ast.Seq (drop_spawn_arg j a, drop_spawn_arg j b)
  | Ast.If (c, a, b) -> Ast.If (c, drop_spawn_arg j a, drop_spawn_arg j b)
  | Ast.While (c, s) -> Ast.While (c, drop_spawn_arg j s)
  | Ast.Spawn sp ->
      Ast.Spawn
        {
          sp with
          Ast.spawn_args = List.filteri (fun i _ -> i <> j) sp.Ast.spawn_args;
        }

let rec reduces_to name = function
  | Ast.Skip | Ast.Return | Ast.Assign _ | Ast.Spawn _ -> false
  | Ast.Seq (a, b) | Ast.If (_, a, b) -> reduces_to name a || reduces_to name b
  | Ast.While (_, s) -> reduces_to name s
  | Ast.Reduce (r, _) -> r = name

let rebuild (p : Ast.program) ?is_base ?base ?inductive () =
  let m = p.Ast.mth in
  let is_base = Option.value is_base ~default:m.Ast.is_base in
  let base = Gen.normalize (Option.value base ~default:m.Ast.base) in
  let inductive =
    Gen.renumber (Gen.normalize (Option.value inductive ~default:m.Ast.inductive))
  in
  { p with Ast.mth = { m with Ast.is_base; base; inductive } }

let candidates (p : Ast.program) (args : int list) :
    (Ast.program * int list) list =
  let m = p.Ast.mth in
  (* big cuts first: empty base, a single bare spawn site *)
  let base_to_skip =
    if m.Ast.base = Ast.Skip then []
    else [ (rebuild p ~base:Ast.Skip (), args) ]
  in
  let single_site =
    match Ast.spawn_sites m.Ast.inductive with
    | [ _ ] -> []
    | sites ->
        List.map (fun sp -> (rebuild p ~inductive:(Ast.Spawn sp) (), args)) sites
  in
  let arg_shrinks =
    List.concat
      (List.mapi
         (fun i v ->
           let replace v' =
             (p, List.mapi (fun j w -> if i = j then v' else w) args)
           in
           if v = 0 then []
           else
             replace 0
             :: ((if abs v >= 2 then [ replace (v / 2) ] else [])
                @ [ replace (if v > 0 then v - 1 else v + 1) ]))
         args)
  in
  let param_drops =
    List.concat
      (List.mapi
         (fun j name ->
           let used =
             expr_uses name m.Ast.is_base
             || stmt_uses name m.Ast.base
             || stmt_uses ~skip_arg:j name m.Ast.inductive
           in
           if used || List.length m.Ast.params <= 1 then []
           else
             let p' =
               rebuild
                 {
                   p with
                   Ast.mth =
                     {
                       m with
                       Ast.params = List.filteri (fun i _ -> i <> j) m.Ast.params;
                     };
                 }
                 ~inductive:(drop_spawn_arg j m.Ast.inductive)
                 ()
             in
             [ (p', List.filteri (fun i _ -> i <> j) args) ])
         m.Ast.params)
  in
  let reducer_drops =
    if List.length p.Ast.reducers <= 1 then []
    else
      List.filter_map
        (fun (r : Ast.reducer_decl) ->
          if reduces_to r.Ast.red_name m.Ast.base then None
          else
            Some
              ( {
                  p with
                  Ast.reducers =
                    List.filter
                      (fun (r' : Ast.reducer_decl) ->
                        r'.Ast.red_name <> r.Ast.red_name)
                      p.Ast.reducers;
                },
                args ))
        p.Ast.reducers
  in
  let inductive_edits =
    List.map
      (fun s -> (rebuild p ~inductive:s (), args))
      (stmt_shrinks m.Ast.inductive)
  in
  let base_edits =
    List.map (fun s -> (rebuild p ~base:s (), args)) (stmt_shrinks m.Ast.base)
  in
  let is_base_edits =
    List.map
      (fun e -> (rebuild p ~is_base:e (), args))
      (expr_shrinks m.Ast.is_base)
  in
  base_to_skip @ single_site @ arg_shrinks @ param_drops @ reducer_drops
  @ inductive_edits @ base_edits @ is_base_edits

(* Accepted edits are capped as a safety net; the measure already
   guarantees termination. *)
let max_steps = 10_000

let minimize ~keep p args =
  let rec loop steps p args m =
    if steps >= max_steps then (p, args)
    else
      let next =
        List.find_opt
          (fun (p', a') -> measure p' a' < m && valid p' && keep p' a')
          (candidates p args)
      in
      match next with
      | Some (p', a') -> loop (steps + 1) p' a' (measure p' a')
      | None -> (p, args)
  in
  loop 0 p args (measure p args)
