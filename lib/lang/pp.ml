open Ast

let unop_str = function Neg -> "-" | Not -> "!"

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "&&" | Or -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

(* Precedence levels matching the parser: higher binds tighter. *)
let prec = function
  | Or -> 1
  | And -> 2
  | Lt | Le | Gt | Ge | Eq | Ne -> 3
  | Add | Sub | Bor | Bxor -> 4
  | Mul | Div | Mod | Band | Shl | Shr -> 5

let rec pp_expr_prec level fmt e =
  match e with
  | Int n -> if n < 0 then Format.fprintf fmt "(%d)" n else Format.pp_print_int fmt n
  | Bool b -> Format.pp_print_string fmt (if b then "true" else "false")
  | Var name -> Format.pp_print_string fmt name
  | Unop (op, e) -> Format.fprintf fmt "%s%a" (unop_str op) (pp_expr_prec 6) e
  | Binop (op, a, b) ->
      let p = prec op in
      let open_paren = p < level in
      if open_paren then Format.pp_print_char fmt '(';
      (* Left-associative: the right operand needs strictly higher level
         except for non-associative comparisons, which the parser only
         chains once anyway. *)
      Format.fprintf fmt "%a %s %a" (pp_expr_prec p) a (binop_str op)
        (pp_expr_prec (p + 1)) b;
      if open_paren then Format.pp_print_char fmt ')'
  | Call (name, args) ->
      Format.fprintf fmt "%s(%a)" name
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           (pp_expr_prec 0))
        args

let pp_expr fmt e = pp_expr_prec 0 fmt e

let rec pp_stmt fmt = function
  | Skip -> Format.fprintf fmt "skip;"
  | Return -> Format.fprintf fmt "return;"
  | Seq (a, b) -> Format.fprintf fmt "%a@,%a" pp_stmt a pp_stmt b
  | Assign (name, e) -> Format.fprintf fmt "%s := %a;" name pp_expr e
  | If (cond, a, b) ->
      Format.fprintf fmt "@[<v 2>if %a then {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
        pp_expr cond pp_stmt a pp_stmt b
  | While (cond, body) ->
      Format.fprintf fmt "@[<v 2>while %a {@,%a@]@,}" pp_expr cond pp_stmt body
  | Reduce (name, e) -> Format.fprintf fmt "reduce(%s, %a);" name pp_expr e
  | Spawn { spawn_args; _ } ->
      Format.fprintf fmt "spawn @@self(%a);"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_expr)
        spawn_args

(* [pp_stmt] prints spawn targets as a placeholder because the statement
   alone does not know the method name; [pp_program] rebinds it. *)
let pp_stmt_in ~method_name fmt stmt =
  let rec go fmt = function
    | Spawn { spawn_args; _ } ->
        Format.fprintf fmt "spawn %s(%a);" method_name
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             pp_expr)
          spawn_args
    | Seq (a, b) -> Format.fprintf fmt "%a@,%a" go a go b
    | If (cond, a, b) ->
        Format.fprintf fmt "@[<v 2>if %a then {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
          pp_expr cond go a go b
    | While (cond, body) ->
        Format.fprintf fmt "@[<v 2>while %a {@,%a@]@,}" pp_expr cond go body
    | (Skip | Return | Assign _ | Reduce _) as s -> pp_stmt fmt s
  in
  go fmt stmt

let pp_program fmt { reducers; mth } =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun { red_name; red_op } ->
      Format.fprintf fmt "reducer %s %s;@," (Reducer.op_name red_op) red_name)
    reducers;
  if reducers <> [] then Format.fprintf fmt "@,";
  Format.fprintf fmt "@[<v 2>def %s(%a) =@,@[<v 2>if %a then {@,%a@]@,@[<v 2>} else {@,%a@]@,}@]@]"
    mth.name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Format.pp_print_string)
    mth.params pp_expr mth.is_base
    (pp_stmt_in ~method_name:mth.name)
    mth.base
    (pp_stmt_in ~method_name:mth.name)
    mth.inductive

let program_to_string p = Format.asprintf "%a" pp_program p
