open Ast

exception Runtime_error of string
exception Task_limit_exceeded of int

type outcome = { reducers : (string * int) list; profile : Profile.t }

type value = VInt of int | VBool of bool

let as_int = function
  | VInt n -> n
  | VBool _ -> raise (Runtime_error "expected int, got bool")

let as_bool = function
  | VBool b -> b
  | VInt _ -> raise (Runtime_error "expected bool, got int")

type env = { vars : (string, int) Hashtbl.t; profile : Profile.t }

let lookup env name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> v
  | None -> raise (Runtime_error (Printf.sprintf "unbound variable %s" name))

let eval_unop op v =
  match (op, v) with
  | Neg, VInt n -> VInt (-n)
  | Not, VBool b -> VBool (not b)
  | Neg, VBool _ -> raise (Runtime_error "unary - on bool")
  | Not, VInt _ -> raise (Runtime_error "! on int")

let eval_binop op a b =
  match op with
  | Add -> VInt (as_int a + as_int b)
  | Sub -> VInt (as_int a - as_int b)
  | Mul -> VInt (as_int a * as_int b)
  | Div ->
      let d = as_int b in
      if d = 0 then raise (Runtime_error "division by zero");
      VInt (as_int a / d)
  | Mod ->
      let d = as_int b in
      if d = 0 then raise (Runtime_error "modulo by zero");
      VInt (as_int a mod d)
  | Lt -> VBool (as_int a < as_int b)
  | Le -> VBool (as_int a <= as_int b)
  | Gt -> VBool (as_int a > as_int b)
  | Ge -> VBool (as_int a >= as_int b)
  | Eq -> VBool (as_int a = as_int b)
  | Ne -> VBool (as_int a <> as_int b)
  | And -> VBool (as_bool a && as_bool b)
  | Or -> VBool (as_bool a || as_bool b)
  | Band -> VInt (as_int a land as_int b)
  | Bor -> VInt (as_int a lor as_int b)
  | Bxor -> VInt (as_int a lxor as_int b)
  | Shl -> VInt (Builtins.shl (as_int a) (as_int b))
  | Shr -> VInt (Builtins.shr (as_int a) (as_int b))

let rec eval env e =
  Profile.kernel_ops env.profile 1;
  match e with
  | Int n -> VInt n
  | Bool b -> VBool b
  | Var name -> VInt (lookup env name)
  | Unop (op, e) -> eval_unop op (eval env e)
  | Binop ((And | Or) as op, a, b) ->
      (* Short-circuit, like the C the benchmarks are written in. *)
      let va = as_bool (eval env a) in
      if (op = And && not va) || (op = Or && va) then VBool va
      else VBool (as_bool (eval env b))
  | Binop (op, a, b) ->
      let va = eval env a in
      let vb = eval env b in
      eval_binop op va vb
  | Call (name, args) -> (
      match Builtins.find name with
      | None -> raise (Runtime_error (Printf.sprintf "unknown builtin %s" name))
      | Some fn ->
          let vs = Array.of_list (List.map (fun a -> as_int (eval env a)) args) in
          if Array.length vs <> Builtins.arity fn then
            raise (Runtime_error (Printf.sprintf "bad arity for %s" name));
          VInt (Builtins.apply fn vs))

exception Returned

let run ?(max_tasks = 50_000_000) program args =
  let m = program.mth in
  if List.length args <> List.length m.params then
    raise
      (Runtime_error
         (Printf.sprintf "%s expects %d arguments, got %d" m.name
            (List.length m.params) (List.length args)));
  let profile = Profile.create () in
  let reducer_set =
    Reducer.make_set (List.map (fun r -> (r.red_name, r.red_op)) program.reducers)
  in
  let rec exec_task depth args =
    if Profile.tasks profile >= max_tasks then
      raise (Task_limit_exceeded max_tasks);
    Profile.enter_task profile ~depth;
    (* Frame setup: the per-task cost a work-stealing runtime or our block
       manager pays; counted as overhead (Table 3's non-vectorizable
       side). *)
    Profile.overhead_ops profile (2 + List.length args);
    let env = { vars = Hashtbl.create 8; profile } in
    List.iter2 (Hashtbl.replace env.vars) m.params args;
    if as_bool (eval env m.is_base) then begin
      Profile.record_base profile ~depth;
      exec_stmt env depth m.base
    end
    else exec_stmt env depth m.inductive
  and exec_stmt env depth stmt =
    try exec env depth stmt with Returned -> ()
  and exec env depth stmt =
    Profile.kernel_ops env.profile 1;
    match stmt with
    | Skip -> ()
    | Return -> raise Returned
    | Seq (a, b) ->
        exec env depth a;
        exec env depth b
    | Assign (name, e) -> Hashtbl.replace env.vars name (as_int (eval env e))
    | If (cond, a, b) -> if as_bool (eval env cond) then exec env depth a else exec env depth b
    | While (cond, body) ->
        while as_bool (eval env cond) do
          exec env depth body
        done
    | Reduce (name, e) -> Reducer.reduce reducer_set name (as_int (eval env e))
    | Spawn { spawn_args; _ } ->
        let args = List.map (fun a -> as_int (eval env a)) spawn_args in
        (* Depth-first: execute the spawned task immediately (work-first
           scheduling, §2). *)
        exec_task (depth + 1) args
  in
  exec_task 0 args;
  { reducers = Reducer.values reducer_set; profile }

let run_validated ?max_tasks program args =
  ignore (Validate.check_exn program : Validate.info);
  run ?max_tasks program args
