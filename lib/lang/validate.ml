open Ast

type info = { num_spawns : int; locals : string list }

exception Invalid of string list

type ty = TInt | TBool

let ty_name = function TInt -> "int" | TBool -> "bool"

module StringSet = Set.Make (String)

type ctx = {
  program : program;
  mutable errors : string list;
  mutable locals : string list;  (* reversed first-assignment order *)
}

let err ctx fmt = Printf.ksprintf (fun s -> ctx.errors <- s :: ctx.errors) fmt

let note_local ctx name =
  if not (List.mem name ctx.locals) then ctx.locals <- name :: ctx.locals

let rec dup = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else dup rest

(* Type-check an expression, treating all variables as ints (Fig. 2 values
   are plain values; booleans exist only transiently in conditions). *)
let rec type_of ctx assigned e : ty =
  match e with
  | Int _ -> TInt
  | Bool _ -> TBool
  | Var name ->
      if not (StringSet.mem name assigned) then
        err ctx "variable %s may be used before assignment" name;
      TInt
  | Unop (Neg, e) ->
      expect ctx assigned e TInt "operand of unary -";
      TInt
  | Unop (Not, e) ->
      expect ctx assigned e TBool "operand of !";
      TBool
  | Binop (op, a, b) -> (
      match op with
      | Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr ->
          expect ctx assigned a TInt "arithmetic operand";
          expect ctx assigned b TInt "arithmetic operand";
          TInt
      | Lt | Le | Gt | Ge | Eq | Ne ->
          expect ctx assigned a TInt "comparison operand";
          expect ctx assigned b TInt "comparison operand";
          TBool
      | And | Or ->
          expect ctx assigned a TBool "logical operand";
          expect ctx assigned b TBool "logical operand";
          TBool)
  | Call (name, args) -> (
      match Builtins.find name with
      | None ->
          err ctx "unknown builtin function %s" name;
          TInt
      | Some fn ->
          if List.length args <> Builtins.arity fn then
            err ctx "builtin %s expects %d arguments, got %d" name (Builtins.arity fn)
              (List.length args);
          List.iter (fun a -> expect ctx assigned a TInt "builtin argument") args;
          TInt)

and expect ctx assigned e ty what =
  let actual = type_of ctx assigned e in
  if actual <> ty then
    err ctx "%s must be %s but is %s" what (ty_name ty) (ty_name actual)

(* Walk a statement in the given phase, threading the definitely-assigned
   set.  Returns the assigned set after the statement (for straight-line
   flow). *)
type phase = Base | Inductive

let rec check_stmt ctx phase assigned stmt =
  match stmt with
  | Skip | Return -> assigned
  | Seq (a, b) ->
      let assigned = check_stmt ctx phase assigned a in
      check_stmt ctx phase assigned b
  | Assign (name, e) ->
      if List.mem name ctx.program.mth.params then
        err ctx "assignment to parameter %s (locals only)" name;
      expect ctx assigned e TInt "assigned value";
      note_local ctx name;
      StringSet.add name assigned
  | If (cond, a, b) ->
      expect ctx assigned cond TBool "if condition";
      let after_a = check_stmt ctx phase assigned a in
      let after_b = check_stmt ctx phase assigned b in
      StringSet.inter after_a after_b
  | While (cond, body) ->
      expect ctx assigned cond TBool "while condition";
      if List.exists (fun _ -> true) (Ast.spawn_sites body) then
        err ctx "spawn under while: spawn count must be statically bounded";
      ignore (check_stmt ctx phase assigned body : StringSet.t);
      assigned
  | Reduce (name, e) ->
      if phase <> Base then err ctx "reduce outside the base case";
      if not (List.exists (fun r -> r.red_name = name) ctx.program.reducers) then
        err ctx "reduce on undeclared reducer %s" name;
      expect ctx assigned e TInt "reduced value";
      assigned
  | Spawn { spawn_id = _; spawn_args } ->
      if phase <> Inductive then err ctx "spawn outside the inductive case";
      let arity = List.length ctx.program.mth.params in
      if List.length spawn_args <> arity then
        err ctx "spawn passes %d arguments but %s has %d parameters"
          (List.length spawn_args) ctx.program.mth.name arity;
      List.iter (fun a -> expect ctx assigned a TInt "spawn argument") spawn_args;
      assigned

let check program =
  let ctx = { program; errors = []; locals = [] } in
  let m = program.mth in
  (match dup m.params with
  | Some p -> err ctx "duplicate parameter %s" p
  | None -> ());
  (match dup (List.map (fun r -> r.red_name) program.reducers) with
  | Some r -> err ctx "duplicate reducer %s" r
  | None -> ());
  let params_assigned = StringSet.of_list m.params in
  expect ctx params_assigned m.is_base TBool "base-case conditional";
  ignore (check_stmt ctx Base params_assigned m.base : StringSet.t);
  ignore (check_stmt ctx Inductive params_assigned m.inductive : StringSet.t);
  let sites = Ast.spawn_sites m.inductive in
  List.iteri
    (fun i sp ->
      if sp.spawn_id <> i then
        err ctx "spawn id %d out of order (expected %d)" sp.spawn_id i)
    sites;
  match ctx.errors with
  | [] -> Ok { num_spawns = List.length sites; locals = List.rev ctx.locals }
  | errors -> Error (List.rev errors)

let check_exn program =
  match check program with Ok info -> info | Error errors -> raise (Invalid errors)
