open Vc_lang

type mask = (string * bool) list

type target = Next | Nexts of int

type step =
  | Pred of { mask : mask; var : string; cond : Ast.expr }
  | Kill of { mask : mask }
  | Assign of { mask : mask; var : string; rhs : Ast.expr }
  | Reduce of { mask : mask; reducer : string; value : Ast.expr }
  | Enqueue of { mask : mask; target : target; args : Ast.expr list }
  | Residual of { mask : mask; stmt : Blocked_ast.bstmt }

type t = {
  source : Blocked_ast.bmethod;
  fields : string list;
  steps : step list;
  base_pred : string;
}

let distribute (m : Blocked_ast.bmethod) =
  let counter = ref 0 in
  let fresh () =
    let name = Printf.sprintf "$p%d" !counter in
    incr counter;
    name
  in
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let rec convert mask (s : Blocked_ast.bstmt) =
    match s with
    | Blocked_ast.BSkip -> ()
    | Blocked_ast.Continue -> emit (Kill { mask })
    | Blocked_ast.BSeq (a, b) ->
        convert mask a;
        convert mask b
    | Blocked_ast.BAssign (var, rhs) -> emit (Assign { mask; var; rhs })
    | Blocked_ast.BIf (cond, a, b) ->
        let var = fresh () in
        emit (Pred { mask; var; cond });
        convert ((var, true) :: mask) a;
        convert ((var, false) :: mask) b
    | Blocked_ast.BWhile (_, _) -> emit (Residual { mask; stmt = s })
    | Blocked_ast.BReduce (reducer, value) -> emit (Reduce { mask; reducer; value })
    | Blocked_ast.NextAdd args -> emit (Enqueue { mask; target = Next; args })
    | Blocked_ast.NextsAdd (id, args) ->
        emit (Enqueue { mask; target = Nexts id; args })
  in
  let base_pred = fresh () in
  emit (Pred { mask = []; var = base_pred; cond = m.Blocked_ast.is_base });
  convert [ (base_pred, true) ] m.Blocked_ast.base;
  convert [ (base_pred, false) ] m.Blocked_ast.inductive;
  {
    source = m;
    fields = m.Blocked_ast.fields;
    steps = List.rev !steps;
    base_pred;
  }

module StringSet = Set.Make (String)

let mask_vars mask acc =
  List.fold_left (fun acc (v, _) -> StringSet.add v acc) acc mask

let simplify t =
  (* one backward pass collecting the predicate variables later masks read *)
  let rec prune steps =
    match steps with
    | [] -> ([], StringSet.empty)
    | step :: rest ->
        let rest', used = prune rest in
        let keep_with mask =
          (step :: rest', mask_vars mask used)
        in
        (match step with
        | Pred { mask; var; cond } ->
            if StringSet.mem var used || Vc_lang.Optim.can_trap cond then
              keep_with mask
            else (rest', used)
        | Kill { mask } -> keep_with mask
        | Assign { mask; _ } -> keep_with mask
        | Reduce { mask; _ } -> keep_with mask
        | Enqueue { mask; _ } -> keep_with mask
        | Residual { mask; _ } -> keep_with mask)
  in
  let steps, _ = prune t.steps in
  { t with steps }

let is_residual = function Residual _ -> true | _ -> false

let vectorizable_steps t =
  List.length (List.filter (fun s -> not (is_residual s)) t.steps)

let residual_steps t = List.length (List.filter is_residual t.steps)

(* ------------------------------------------------------------------ *)
(* Pretty-printing as dense vector pseudo-code.                        *)

let pp_mask fmt mask =
  match mask with
  | [] -> ()
  | conds ->
      Format.fprintf fmt " where %s"
        (String.concat " && "
           (List.rev_map (fun (v, pos) -> if pos then v else "!" ^ v) conds))

let pp_args fmt args =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    Pp.pp_expr fmt args

let pp_step fmt = function
  | Pred { mask; var; cond } ->
      Format.fprintf fmt "%s[:] <- %a%a" var Pp.pp_expr cond pp_mask mask
  | Kill { mask } -> Format.fprintf fmt "live[:] <- 0%a" pp_mask mask
  | Assign { mask; var; rhs } ->
      Format.fprintf fmt "%s[:] <- %a%a" var Pp.pp_expr rhs pp_mask mask
  | Reduce { mask; reducer; value } ->
      Format.fprintf fmt "reduce(%s, %a[:])%a" reducer Pp.pp_expr value pp_mask mask
  | Enqueue { mask; target; args } ->
      let tgt = match target with Next -> "next" | Nexts i -> Printf.sprintf "nexts[%d]" i in
      Format.fprintf fmt "%s.add(Thread(%a))[:]%a" tgt pp_args args pp_mask mask
  | Residual { mask; stmt } ->
      Format.fprintf fmt "@[<v 2>residual scalar loop%a: {@,%a@]@,}" pp_mask mask
        Blocked_ast.pp_bstmt stmt

let pp fmt t =
  Format.fprintf fmt "@[<v>// distributed form of %s: %d dense steps, %d residual@,"
    t.source.Blocked_ast.bname (vectorizable_steps t) (residual_steps t);
  List.iter (fun s -> Format.fprintf fmt "%a@," pp_step s) t.steps;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Step-major execution.                                               *)

type sinks = {
  reduce : string -> int -> unit;
  enqueue : target -> int array -> unit;
}

(* Per-thread environment: parameters from the frame, plus locals and
   predicate temps stored SoA (one column per variable). *)
type env = {
  nthreads : int;
  fields : string array;
  frames : int array array;  (* [thread].(field) *)
  columns : (string, int array) Hashtbl.t;  (* locals + predicates *)
  alive : bool array;
}

let column env name =
  match Hashtbl.find_opt env.columns name with
  | Some col -> col
  | None ->
      let col = Array.make env.nthreads 0 in
      Hashtbl.add env.columns name col;
      col

(* Columns materialize on first touch with all-zero contents.  Reading an
   unwritten slot happens only for predicate temps in masks of threads the
   guarding conjunct already excludes (the temp is written exactly under
   that conjunct), so zero-defaulting is sound; for locals, the validator's
   definite-assignment analysis guarantees a masked write precedes any
   masked read on every thread. *)
let lookup env thread name =
  let rec field_index i =
    if i >= Array.length env.fields then None
    else if env.fields.(i) = name then Some i
    else field_index (i + 1)
  in
  match field_index 0 with
  | Some i -> env.frames.(thread).(i)
  | None -> (column env name).(thread)

let store env thread name v =
  let rec field_index i =
    if i >= Array.length env.fields then None
    else if env.fields.(i) = name then Some i
    else field_index (i + 1)
  in
  match field_index 0 with
  | Some i -> env.frames.(thread).(i) <- v
  | None -> (column env name).(thread) <- v

let rec eval env thread (e : Ast.expr) =
  match e with
  | Ast.Int n -> n
  | Ast.Bool b -> if b then 1 else 0
  | Ast.Var name -> lookup env thread name
  | Ast.Unop (Ast.Neg, e) -> -eval env thread e
  | Ast.Unop (Ast.Not, e) -> if eval env thread e = 0 then 1 else 0
  | Ast.Binop (op, a, b) -> eval_binop env thread op a b
  | Ast.Call (name, args) -> (
      match Builtins.find name with
      | None -> raise (Codegen.Runtime_error (Printf.sprintf "unknown builtin %s" name))
      | Some fn ->
          Builtins.apply fn (Array.of_list (List.map (eval env thread) args)))

and eval_binop env thread op a b =
  let int op = op (eval env thread a) (eval env thread b) in
  let cmp op = if op (eval env thread a) (eval env thread b) then 1 else 0 in
  match op with
  | Ast.Add -> int ( + )
  | Ast.Sub -> int ( - )
  | Ast.Mul -> int ( * )
  | Ast.Div ->
      let d = eval env thread b in
      if d = 0 then raise (Codegen.Runtime_error "division by zero");
      eval env thread a / d
  | Ast.Mod ->
      let d = eval env thread b in
      if d = 0 then raise (Codegen.Runtime_error "modulo by zero");
      eval env thread a mod d
  | Ast.Lt -> cmp ( < )
  | Ast.Le -> cmp ( <= )
  | Ast.Gt -> cmp ( > )
  | Ast.Ge -> cmp ( >= )
  | Ast.Eq -> cmp ( = )
  | Ast.Ne -> cmp ( <> )
  | Ast.And -> if eval env thread a = 0 then 0 else eval env thread b
  | Ast.Or -> if eval env thread a <> 0 then 1 else eval env thread b
  | Ast.Band -> int ( land )
  | Ast.Bor -> int ( lor )
  | Ast.Bxor -> int ( lxor )
  | Ast.Shl -> int Vc_lang.Builtins.shl
  | Ast.Shr -> int Vc_lang.Builtins.shr

let mask_holds env thread mask =
  env.alive.(thread)
  && List.for_all
       (fun (var, positive) ->
         let v = lookup env thread var in
         if positive then v <> 0 else v = 0)
       mask

(* Residual loops are ordinary statements executed per masked thread. *)
let rec exec_residual env thread sinks (s : Blocked_ast.bstmt) =
  match s with
  | Blocked_ast.BSkip -> ()
  | Blocked_ast.Continue -> env.alive.(thread) <- false
  | Blocked_ast.BSeq (a, b) ->
      exec_residual env thread sinks a;
      if env.alive.(thread) then exec_residual env thread sinks b
  | Blocked_ast.BAssign (var, rhs) -> store env thread var (eval env thread rhs)
  | Blocked_ast.BIf (c, a, b) ->
      if eval env thread c <> 0 then exec_residual env thread sinks a
      else exec_residual env thread sinks b
  | Blocked_ast.BWhile (c, body) ->
      while env.alive.(thread) && eval env thread c <> 0 do
        exec_residual env thread sinks body
      done
  | Blocked_ast.BReduce (r, v) -> sinks.reduce r (eval env thread v)
  | Blocked_ast.NextAdd args ->
      sinks.enqueue Next (Array.of_list (List.map (eval env thread) args))
  | Blocked_ast.NextsAdd (id, args) ->
      sinks.enqueue (Nexts id) (Array.of_list (List.map (eval env thread) args))

let exec_step env sinks = function
  | Pred { mask; var; cond } ->
      for thread = 0 to env.nthreads - 1 do
        if mask_holds env thread mask then
          store env thread var (eval env thread cond)
      done
  | Kill { mask } ->
      for thread = 0 to env.nthreads - 1 do
        if mask_holds env thread mask then env.alive.(thread) <- false
      done
  | Assign { mask; var; rhs } ->
      for thread = 0 to env.nthreads - 1 do
        if mask_holds env thread mask then store env thread var (eval env thread rhs)
      done
  | Reduce { mask; reducer; value } ->
      for thread = 0 to env.nthreads - 1 do
        if mask_holds env thread mask then sinks.reduce reducer (eval env thread value)
      done
  | Enqueue { mask; target; args } ->
      for thread = 0 to env.nthreads - 1 do
        if mask_holds env thread mask then
          sinks.enqueue target (Array.of_list (List.map (eval env thread) args))
      done
  | Residual { mask; stmt } ->
      for thread = 0 to env.nthreads - 1 do
        if mask_holds env thread mask then exec_residual env thread sinks stmt
      done

let exec_block (t : t) ~frames sinks =
  let frames = Array.of_list frames in
  let env =
    {
      nthreads = Array.length frames;
      fields = Array.of_list t.fields;
      frames;
      columns = Hashtbl.create 8;
      alive = Array.make (Array.length frames) true;
    }
  in
  List.iter (exec_step env sinks) t.steps
