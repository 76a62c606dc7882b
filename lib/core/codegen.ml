open Vc_lang

exception Runtime_error of string

type layout = { params : string array; locals : string array }

let layout_of (program : Ast.program) =
  let info = Validate.check_exn program in
  {
    params = Array.of_list program.Ast.mth.Ast.params;
    locals = Array.of_list info.Validate.locals;
  }

let params l = l.params
let locals l = l.locals

type rt = { frame : int array; locals : int array }

let make_rt l =
  { frame = Array.make (Array.length l.params) 0; locals = Array.make (max 1 (Array.length l.locals)) 0 }

let reset_locals rt = Array.fill rt.locals 0 (Array.length rt.locals) 0

type slot = Param of int | Local of int

let find_slot l name =
  let rec scan arr i mk =
    if i >= Array.length arr then None
    else if arr.(i) = name then Some (mk i)
    else scan arr (i + 1) mk
  in
  match scan l.params 0 (fun i -> Param i) with
  | Some s -> Some s
  | None -> scan l.locals 0 (fun i -> Local i)

let slot_exn l name =
  match find_slot l name with
  | Some s -> s
  | None -> raise (Runtime_error (Printf.sprintf "unbound variable %s" name))

let bool_of i = i <> 0
let of_bool b = if b then 1 else 0

let builtin_exn name =
  match Builtins.find name with
  | Some fn -> fn
  | None -> raise (Runtime_error (Printf.sprintf "unknown builtin %s" name))

let bad_arity name =
  raise (Runtime_error (Printf.sprintf "bad arity for builtin %s" name))

let rec compile_expr l (e : Ast.expr) : rt -> int =
  match e with
  | Ast.Int n -> fun _ -> n
  | Ast.Bool b ->
      let v = of_bool b in
      fun _ -> v
  | Ast.Var name -> (
      match slot_exn l name with
      | Param i -> fun rt -> rt.frame.(i)
      | Local i -> fun rt -> rt.locals.(i))
  | Ast.Unop (Ast.Neg, e) ->
      let f = compile_expr l e in
      fun rt -> -f rt
  | Ast.Unop (Ast.Not, e) ->
      let f = compile_expr l e in
      fun rt -> of_bool (not (bool_of (f rt)))
  | Ast.Binop (op, a, b) -> compile_binop l op a b
  | Ast.Call (name, args) -> (
      (* arguments evaluate left to right, as the tree interpreter's do *)
      match (builtin_exn name, List.map (compile_expr l) args) with
      | Builtins.Unary f, [ fa ] -> fun rt -> f (fa rt)
      | Builtins.Binary f, [ fa; fb ] ->
          fun rt ->
            let a = fa rt in
            f a (fb rt)
      | _ -> bad_arity name)

and compile_binop l op a b =
  let fa = compile_expr l a in
  let fb = compile_expr l b in
  match (op : Ast.binop) with
  | Ast.Add -> fun rt -> fa rt + fb rt
  | Ast.Sub -> fun rt -> fa rt - fb rt
  | Ast.Mul -> fun rt -> fa rt * fb rt
  | Ast.Div ->
      fun rt ->
        let d = fb rt in
        if d = 0 then raise (Runtime_error "division by zero");
        fa rt / d
  | Ast.Mod ->
      fun rt ->
        let d = fb rt in
        if d = 0 then raise (Runtime_error "modulo by zero");
        fa rt mod d
  | Ast.Lt -> fun rt -> of_bool (fa rt < fb rt)
  | Ast.Le -> fun rt -> of_bool (fa rt <= fb rt)
  | Ast.Gt -> fun rt -> of_bool (fa rt > fb rt)
  | Ast.Ge -> fun rt -> of_bool (fa rt >= fb rt)
  | Ast.Eq -> fun rt -> of_bool (fa rt = fb rt)
  | Ast.Ne -> fun rt -> of_bool (fa rt <> fb rt)
  | Ast.And -> fun rt -> if bool_of (fa rt) then fb rt else 0
  | Ast.Or -> fun rt -> if bool_of (fa rt) then 1 else fb rt
  | Ast.Band -> fun rt -> fa rt land fb rt
  | Ast.Bor -> fun rt -> fa rt lor fb rt
  | Ast.Bxor -> fun rt -> fa rt lxor fb rt
  | Ast.Shl -> fun rt -> Vc_lang.Builtins.shl (fa rt) (fb rt)
  | Ast.Shr -> fun rt -> Vc_lang.Builtins.shr (fa rt) (fb rt)

exception Returned

let compile_stmt l ~reduce ~spawn stmt =
  let rec compile (stmt : Ast.stmt) : rt -> unit =
    match stmt with
    | Ast.Skip -> fun _ -> ()
    | Ast.Return -> fun _ -> raise Returned
    | Ast.Seq (a, b) ->
        let fa = compile a in
        let fb = compile b in
        fun rt ->
          fa rt;
          fb rt
    | Ast.Assign (name, e) -> (
        let f = compile_expr l e in
        match slot_exn l name with
        | Local i -> fun rt -> rt.locals.(i) <- f rt
        | Param i -> fun rt -> rt.frame.(i) <- f rt)
    | Ast.If (cond, a, b) ->
        let fc = compile_expr l cond in
        let fa = compile a in
        let fb = compile b in
        fun rt -> if bool_of (fc rt) then fa rt else fb rt
    | Ast.While (cond, body) ->
        let fc = compile_expr l cond in
        let fbody = compile body in
        fun rt ->
          while bool_of (fc rt) do
            fbody rt
          done
    | Ast.Reduce (name, e) ->
        let f = compile_expr l e in
        fun rt -> reduce name (f rt)
    | Ast.Spawn { spawn_id; spawn_args } ->
        let compiled = Array.of_list (List.map (compile_expr l) spawn_args) in
        fun rt -> spawn ~site:spawn_id (Array.map (fun f -> f rt) compiled)
  in
  let f = compile stmt in
  fun rt -> try f rt with Returned -> ()

(* ------------------------------------------------------------------ *)
(* SoA compiled backend (ROADMAP item 1).

   [Soa.instantiate] specializes a blocked program once into step kernels
   that execute a whole level over unboxed structure-of-arrays frames:
   expressions compile to [unit -> int] closures reading columns through a
   single mutable cursor, spawn sites write evaluated arguments column-wise
   into destination buffers, and the only per-row work is a locals reset
   plus the compiled body — no per-thread [rt] allocation, no frame
   blitting, no list churn.

   An instance owns mutable scratch (cursor, sink cells), so it
   is single-domain: parallel schedulers instantiate once per domain. *)

module Soa = struct
  (* Segment rows: a level grows one segment at a time, so a full segment
     is never copied and the storage a level holds is at most one partly
     filled segment above its rows. *)
  let seg_rows = 1024

  (* The level store: one process-wide stack of free [seg_rows]-row int
     columns, shared by every level of every run on every domain.  A level
     takes its columns from it and gives them back when cleared, so a
     steady-state run allocates no level storage.  It is global rather
     than per domain because the chunked-domains driver spawns fresh
     worker domains each run; it keeps at most [store_cap] columns
     (4 MiB), so a long-running process retains a bounded amount and
     columns past the cap are left to the GC. *)
  let store_cap = 512

  type store = {
    lock : Mutex.t;
    free : int array array;  (* [free.(0 .. count - 1)] are free columns *)
    mutable count : int;
    mutable allocated : int;
  }

  let store =
    { lock = Mutex.create (); free = Array.make store_cap [||]; count = 0; allocated = 0 }

  let stored () = Mutex.protect store.lock (fun () -> store.count)
  let allocated () = Mutex.protect store.lock (fun () -> store.allocated)

  (* A level: a run of SoA segments, oldest first, the last one being
     filled ([cols], [n] rows used).  A level without a segment reads as
     full ([n = seg_rows]), so [n = seg_rows] is the one test a push makes
     before it stores (the paper's ThreadBlocks, §5).  Both IR steppers
     run over these.  Rows at or above a segment's fill are stale data
     from an earlier level and are never read. *)
  type buf = {
    nfields : int;
    mutable segs : int array array array;
    mutable nsegs : int;
    mutable cols : int array array;
    mutable n : int;
  }

  let make_buf ~nfields = { nfields; segs = [||]; nsegs = 0; cols = [||]; n = seg_rows }
  let size b = ((b.nsegs - 1) * seg_rows) + b.n

  let clear b =
    if b.nsegs > 0 then begin
      Mutex.lock store.lock;
      for i = 0 to b.nsegs - 1 do
        Array.iter
          (fun col ->
            if store.count < store_cap then begin
              store.free.(store.count) <- col;
              store.count <- store.count + 1
            end)
          b.segs.(i);
        b.segs.(i) <- [||]
      done;
      Mutex.unlock store.lock
    end;
    b.nsegs <- 0;
    b.cols <- [||];
    b.n <- seg_rows

  (* The push found the last segment full (or none yet): take the next
     segment's columns from the store, allocating (outside the lock) only
     those it cannot supply. *)
  let next_segment b =
    let nf = b.nfields in
    let seg = Array.make nf [||] in
    if b.nsegs = Array.length b.segs then begin
      let segs = Array.make (max 4 (2 * b.nsegs)) seg in
      Array.blit b.segs 0 segs 0 b.nsegs;
      b.segs <- segs
    end;
    Mutex.lock store.lock;
    let taken = min nf store.count in
    for f = 0 to taken - 1 do
      store.count <- store.count - 1;
      seg.(f) <- store.free.(store.count);
      store.free.(store.count) <- [||]
    done;
    store.allocated <- store.allocated + (nf - taken);
    Mutex.unlock store.lock;
    for f = taken to nf - 1 do
      seg.(f) <- Array.make seg_rows 0
    done;
    b.segs.(b.nsegs) <- seg;
    b.nsegs <- b.nsegs + 1;
    b.cols <- seg;
    b.n <- 0

  let iter_segments b f =
    for i = 0 to b.nsegs - 1 do
      f b.segs.(i) (if i = b.nsegs - 1 then b.n else seg_rows)
    done

  let push b frame =
    if b.n = seg_rows then next_segment b;
    let n = b.n in
    for f = 0 to b.nfields - 1 do
      b.cols.(f).(n) <- frame.(f)
    done;
    b.n <- n + 1

  let frames b =
    let acc = ref [] in
    iter_segments b (fun cols rows ->
        for r = 0 to rows - 1 do
          acc := Array.init b.nfields (fun f -> cols.(f).(r)) :: !acc
        done);
    List.rev !acc

  let of_frames ~nfields fs =
    let b = make_buf ~nfields in
    List.iter
      (fun f ->
        if Array.length f <> nfields then
          invalid_arg
            (Printf.sprintf
               "Codegen.Soa.of_frames: root frame has %d fields, %d expected"
               (Array.length f) nfields);
        push b f)
      fs;
    b

  type cursor = {
    mutable cur : int array array;
    mutable row : int;
    locals : int array;
  }

  (* Shape of a compiled subexpression: known constant, direct column or
     local read, or residual closure.  Operators specialize on these so a
     hot expression like [n - 1] or [free & 8] is one closure, not a tree
     of them. *)
  type varg =
    | VConst of int
    | VCol of int
    | VLoc of int
    | VFun of (unit -> int)

  type inst = {
    nparams : int;
    num_spawns : int;
    step : src:buf -> blocked:bool -> next:buf -> sites:buf array -> int;
  }

  exception Continue_row

  let rec has_continue (bs : Blocked_ast.bstmt) =
    match bs with
    | Blocked_ast.Continue -> true
    | Blocked_ast.BSeq (a, b) | Blocked_ast.BIf (_, a, b) ->
        has_continue a || has_continue b
    | Blocked_ast.BWhile (_, body) -> has_continue body
    | Blocked_ast.BSkip | Blocked_ast.BAssign _ | Blocked_ast.BReduce _
    | Blocked_ast.NextAdd _ | Blocked_ast.NextsAdd _ ->
        false

  let instantiate (t : Blocked_ast.t) ~(reducers : Reducer.set) : inst =
    let program = t.Blocked_ast.source in
    let layout = layout_of program in
    let nparams = Array.length layout.params in
    let nlocals = Array.length layout.locals in
    let cur = { cur = [||]; row = 0; locals = Array.make (max 1 nlocals) 0 } in
    (* Sink cells: kernels are compiled once per instance, [step] points
       them at the per-call destination buffers before the row loop. *)
    let dummy = make_buf ~nfields:nparams in
    let sink_next = ref dummy in
    let sink_sites = ref ([||] : buf array) in
    (* Value-shaped compilation: every subexpression classifies as a
       constant, a direct column/local load, or a residual closure, and
       each operator specializes on its operands' shapes.  Without this
       (no flambda here), every AST leaf costs an indirect call per row —
       exactly the dispatch this backend exists to remove.  Comparisons
       and commutative operators normalize the constant to the right so
       one specialization row per operator covers both argument orders. *)
    let rec cv (e : Ast.expr) : varg =
      match e with
      | Ast.Int n -> VConst n
      | Ast.Bool b -> VConst (of_bool b)
      | Ast.Var name -> (
          match slot_exn layout name with
          | Param i -> VCol i
          | Local i -> VLoc i)
      | Ast.Unop (Ast.Neg, e) -> (
          match cv e with
          | VConst n -> VConst (-n)
          | VCol i ->
              VFun
                (fun () ->
                  -Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row)
          | v ->
              let f = force v in
              VFun (fun () -> -f ()))
      | Ast.Unop (Ast.Not, e) -> (
          match cv e with
          | VConst n -> VConst (of_bool (n = 0))
          | v ->
              let f = force v in
              VFun (fun () -> of_bool (f () = 0)))
      | Ast.Binop (op, a, b) -> cbin op (cv a) (cv b)
      | Ast.Call (name, args) -> ccall name (builtin_exn name) (List.map cv args)
    and force (v : varg) : unit -> int =
      match v with
      | VConst n -> fun () -> n
      | VCol i ->
          fun () -> Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
      | VLoc i -> fun () -> Array.unsafe_get cur.locals i
      | VFun f -> f
    (* A builtin call is one closure that calls the function: a column
       operand with a constant is read in that closure, with no operand
       closure, and constant arguments fold (builtins are pure and
       total).  Arguments evaluate left to right. *)
    and ccall name fn args =
      match (fn, args) with
      | Builtins.Unary f, [ VConst x ] -> VConst (f x)
      | Builtins.Unary f, [ a ] ->
          let fa = force a in
          VFun (fun () -> f (fa ()))
      | Builtins.Binary f, [ VConst x; VConst y ] -> VConst (f x y)
      | Builtins.Binary f, [ VCol i; VConst k ] ->
          VFun
            (fun () -> f (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row) k)
      | Builtins.Binary f, [ a; b ] ->
          let fa = force a and fb = force b in
          VFun
            (fun () ->
              let x = fa () in
              f x (fb ()))
      | _ -> bad_arity name
    and cbin op a b =
      match ((op : Ast.binop), a, b) with
      (* ---- constant normalization (commutative / mirrored ops) ---- *)
      | (Ast.Add | Ast.Mul | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Eq | Ast.Ne),
        VConst _, (VCol _ | VLoc _ | VFun _) ->
          cbin op b a
      | Ast.Lt, VConst _, (VCol _ | VLoc _ | VFun _) -> cbin Ast.Gt b a
      | Ast.Le, VConst _, (VCol _ | VLoc _ | VFun _) -> cbin Ast.Ge b a
      | Ast.Gt, VConst _, (VCol _ | VLoc _ | VFun _) -> cbin Ast.Lt b a
      | Ast.Ge, VConst _, (VCol _ | VLoc _ | VFun _) -> cbin Ast.Le b a
      (* ---- add / sub ---- *)
      | Ast.Add, VConst x, VConst y -> VConst (x + y)
      | Ast.Add, VCol i, VConst k ->
          VFun
            (fun () -> Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row + k)
      | Ast.Add, VLoc i, VConst k ->
          VFun (fun () -> Array.unsafe_get cur.locals i + k)
      | Ast.Add, VCol i, VCol j ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
              + Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row)
      | Ast.Add, VFun f, VConst k -> VFun (fun () -> f () + k)
      | Ast.Add, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> fa () + fb ())
      | Ast.Sub, VConst x, VConst y -> VConst (x - y)
      | Ast.Sub, VCol i, VConst k ->
          VFun
            (fun () -> Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row - k)
      | Ast.Sub, VLoc i, VConst k ->
          VFun (fun () -> Array.unsafe_get cur.locals i - k)
      | Ast.Sub, VCol i, VCol j ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
              - Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row)
      | Ast.Sub, VFun f, VConst k -> VFun (fun () -> f () - k)
      | Ast.Sub, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> fa () - fb ())
      (* ---- mul ---- *)
      | Ast.Mul, VConst x, VConst y -> VConst (x * y)
      | Ast.Mul, VCol i, VConst k ->
          VFun
            (fun () -> Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row * k)
      | Ast.Mul, VCol i, VCol j ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
              * Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row)
      | Ast.Mul, VFun f, VConst k -> VFun (fun () -> f () * k)
      | Ast.Mul, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> fa () * fb ())
      (* ---- div / mod (checked; a constant divisor checks at compile) ---- *)
      | Ast.Div, VConst x, VConst y when y <> 0 -> VConst (x / y)
      | Ast.Div, a, VConst k when k <> 0 ->
          let fa = force a in
          VFun (fun () -> fa () / k)
      | Ast.Div, a, b ->
          let fa = force a and fb = force b in
          VFun
            (fun () ->
              let d = fb () in
              if d = 0 then raise (Runtime_error "division by zero");
              fa () / d)
      | Ast.Mod, VConst x, VConst y when y <> 0 -> VConst (x mod y)
      | Ast.Mod, a, VConst k when k <> 0 ->
          let fa = force a in
          VFun (fun () -> fa () mod k)
      | Ast.Mod, a, b ->
          let fa = force a and fb = force b in
          VFun
            (fun () ->
              let d = fb () in
              if d = 0 then raise (Runtime_error "modulo by zero");
              fa () mod d)
      (* ---- comparisons (constants normalized right above) ---- *)
      | Ast.Lt, VConst x, VConst y -> VConst (of_bool (x < y))
      | Ast.Lt, VCol i, VConst k ->
          VFun
            (fun () ->
              of_bool (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row < k))
      | Ast.Lt, VLoc i, VConst k ->
          VFun (fun () -> of_bool (Array.unsafe_get cur.locals i < k))
      | Ast.Lt, VCol i, VCol j ->
          VFun
            (fun () ->
              of_bool
                (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
                < Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row))
      | Ast.Lt, VFun f, VConst k -> VFun (fun () -> of_bool (f () < k))
      | Ast.Lt, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> of_bool (fa () < fb ()))
      | Ast.Le, VConst x, VConst y -> VConst (of_bool (x <= y))
      | Ast.Le, VCol i, VConst k ->
          VFun
            (fun () ->
              of_bool
                (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row <= k))
      | Ast.Le, VLoc i, VConst k ->
          VFun (fun () -> of_bool (Array.unsafe_get cur.locals i <= k))
      | Ast.Le, VFun f, VConst k -> VFun (fun () -> of_bool (f () <= k))
      | Ast.Le, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> of_bool (fa () <= fb ()))
      | Ast.Gt, VConst x, VConst y -> VConst (of_bool (x > y))
      | Ast.Gt, VCol i, VConst k ->
          VFun
            (fun () ->
              of_bool (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row > k))
      | Ast.Gt, VLoc i, VConst k ->
          VFun (fun () -> of_bool (Array.unsafe_get cur.locals i > k))
      | Ast.Gt, VFun f, VConst k -> VFun (fun () -> of_bool (f () > k))
      | Ast.Gt, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> of_bool (fa () > fb ()))
      | Ast.Ge, VConst x, VConst y -> VConst (of_bool (x >= y))
      | Ast.Ge, VCol i, VConst k ->
          VFun
            (fun () ->
              of_bool
                (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row >= k))
      | Ast.Ge, VLoc i, VConst k ->
          VFun (fun () -> of_bool (Array.unsafe_get cur.locals i >= k))
      | Ast.Ge, VFun f, VConst k -> VFun (fun () -> of_bool (f () >= k))
      | Ast.Ge, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> of_bool (fa () >= fb ()))
      | Ast.Eq, VConst x, VConst y -> VConst (of_bool (x = y))
      | Ast.Eq, VCol i, VConst k ->
          VFun
            (fun () ->
              of_bool (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row = k))
      | Ast.Eq, VLoc i, VConst k ->
          VFun (fun () -> of_bool (Array.unsafe_get cur.locals i = k))
      | Ast.Eq, VCol i, VCol j ->
          VFun
            (fun () ->
              of_bool
                (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
                = Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row))
      | Ast.Eq, VFun f, VConst k -> VFun (fun () -> of_bool (f () = k))
      | Ast.Eq, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> of_bool (fa () = fb ()))
      | Ast.Ne, VConst x, VConst y -> VConst (of_bool (x <> y))
      | Ast.Ne, VCol i, VConst k ->
          VFun
            (fun () ->
              of_bool
                (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row <> k))
      | Ast.Ne, VLoc i, VConst k ->
          VFun (fun () -> of_bool (Array.unsafe_get cur.locals i <> k))
      | Ast.Ne, VFun f, VConst k -> VFun (fun () -> of_bool (f () <> k))
      | Ast.Ne, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> of_bool (fa () <> fb ()))
      (* ---- short-circuit and/or (same semantics as the interpreter) ---- *)
      | Ast.And, VConst 0, _ -> VConst 0
      | Ast.And, VConst _, b -> b
      | Ast.And, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> if fa () <> 0 then fb () else 0)
      | Ast.Or, VConst 0, b -> b
      | Ast.Or, VConst _, _ -> VConst 1
      | Ast.Or, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> if fa () <> 0 then 1 else fb ())
      (* ---- bitwise ---- *)
      | Ast.Band, VConst x, VConst y -> VConst (x land y)
      | Ast.Band, VCol i, VConst k ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row land k)
      | Ast.Band, VLoc i, VConst k ->
          VFun (fun () -> Array.unsafe_get cur.locals i land k)
      | Ast.Band, VCol i, VCol j ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
              land Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row)
      | Ast.Band, VFun f, VConst k -> VFun (fun () -> f () land k)
      | Ast.Band, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> fa () land fb ())
      | Ast.Bor, VConst x, VConst y -> VConst (x lor y)
      | Ast.Bor, VCol i, VConst k ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row lor k)
      | Ast.Bor, VLoc i, VConst k ->
          VFun (fun () -> Array.unsafe_get cur.locals i lor k)
      | Ast.Bor, VCol i, VCol j ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row
              lor Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row)
      | Ast.Bor, VFun f, VConst k -> VFun (fun () -> f () lor k)
      | Ast.Bor, VFun f, VCol j ->
          VFun
            (fun () ->
              f () lor Array.unsafe_get (Array.unsafe_get cur.cur j) cur.row)
      | Ast.Bor, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> fa () lor fb ())
      | Ast.Bxor, VConst x, VConst y -> VConst (x lxor y)
      | Ast.Bxor, VCol i, VConst k ->
          VFun
            (fun () ->
              Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row lxor k)
      | Ast.Bxor, VFun f, VConst k -> VFun (fun () -> f () lxor k)
      | Ast.Bxor, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> fa () lxor fb ())
      (* ---- shifts: a constant count compiles to a bare lsl/asr ---- *)
      | Ast.Shl, VConst x, VConst y -> VConst (Vc_lang.Builtins.shl x y)
      | Ast.Shl, a, VConst k ->
          let s = k land 63 in
          if s > 62 then VConst 0
          else
            let fa = force a in
            VFun (fun () -> fa () lsl s)
      | Ast.Shl, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> Vc_lang.Builtins.shl (fa ()) (fb ()))
      | Ast.Shr, VConst x, VConst y -> VConst (Vc_lang.Builtins.shr x y)
      | Ast.Shr, a, VConst k ->
          let s = k land 63 in
          let s = if s > 62 then 62 else s in
          let fa = force a in
          VFun (fun () -> fa () asr s)
      | Ast.Shr, a, b ->
          let fa = force a and fb = force b in
          VFun (fun () -> Vc_lang.Builtins.shr (fa ()) (fb ()))
    in
    let ce e = force (cv e) in
    (* A condition [e != 0] (or [0 != e]) is tested as [e] itself: the
       branch already tests for non-zero, so the comparison closure is
       dead weight on every row (nqueens has one per spawn guard). *)
    let guard (c : Ast.expr) =
      match c with
      | Ast.Binop (Ast.Ne, a, b) -> (
          match (cv a, cv b) with
          | v, VConst 0 | VConst 0, v -> v
          | va, vb -> cbin Ast.Ne va vb)
      | c -> cv c
    in
    (* Spawn pushes specialize on arity: the capacity check inlines, and
       1–3-field frames (every benchmark here) skip the field loop. *)
    let make_push exprs =
      let fs = Array.of_list (List.map ce exprs) in
      match fs with
      | [| f0 |] ->
          fun (b : buf) ->
            if b.n = seg_rows then next_segment b;
            let n = b.n in
            Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
            b.n <- n + 1
      | [| f0; f1 |] ->
          fun (b : buf) ->
            if b.n = seg_rows then next_segment b;
            let n = b.n in
            Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
            Array.unsafe_set (Array.unsafe_get b.cols 1) n (f1 ());
            b.n <- n + 1
      | [| f0; f1; f2 |] ->
          fun (b : buf) ->
            if b.n = seg_rows then next_segment b;
            let n = b.n in
            Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
            Array.unsafe_set (Array.unsafe_get b.cols 1) n (f1 ());
            Array.unsafe_set (Array.unsafe_get b.cols 2) n (f2 ());
            b.n <- n + 1
      | fs ->
          let nf = Array.length fs in
          fun (b : buf) ->
            if b.n = seg_rows then next_segment b;
            let n = b.n in
            let cols = b.cols in
            for f = 0 to nf - 1 do
              Array.unsafe_set (Array.unsafe_get cols f) n
                ((Array.unsafe_get fs f) ())
            done;
            b.n <- n + 1
    in
    let rec cb (bs : Blocked_ast.bstmt) : unit -> unit =
      match bs with
      | Blocked_ast.BSkip -> fun () -> ()
      | Blocked_ast.Continue -> fun () -> raise Continue_row
      | Blocked_ast.BSeq (a, b) ->
          let fa = cb a and fb = cb b in
          fun () ->
            fa ();
            fb ()
      | Blocked_ast.BAssign (name, e) -> (
          match (slot_exn layout name, cv e) with
          | Local i, VConst k -> fun () -> Array.unsafe_set cur.locals i k
          | Local i, v ->
              let f = force v in
              fun () -> Array.unsafe_set cur.locals i (f ())
          | Param i, v ->
              (* a param assignment writes the thread's own row in place;
                 each row is visited exactly once per level, so this is the
                 SoA image of mutating a private frame *)
              let f = force v in
              fun () ->
                Array.unsafe_set (Array.unsafe_get cur.cur i) cur.row (f ()))
      | Blocked_ast.BIf (c, a, b) -> (
          match (guard c, b) with
          | VConst 0, _ -> cb b
          | VConst _, _ -> cb a
          | v, Blocked_ast.BSkip ->
              let fc = force v and fa = cb a in
              fun () -> if fc () <> 0 then fa ()
          | v, _ ->
              let fc = force v in
              let fa = cb a and fb = cb b in
              fun () -> if fc () <> 0 then fa () else fb ())
      | Blocked_ast.BWhile (c, body) ->
          let fc = force (guard c) in
          let fbody = cb body in
          fun () ->
            while fc () <> 0 do
              fbody ()
            done
      | Blocked_ast.BReduce (name, e) -> (
          (* the cell is resolved here, once, instead of per call, and the
             argument stays shaped so a column/local feeds the reducer
             without an intermediate closure *)
          let cell = Reducer.find reducers name in
          match cv e with
          | VConst k -> fun () -> Reducer.update cell k
          | VCol i ->
              fun () ->
                Reducer.update cell
                  (Array.unsafe_get (Array.unsafe_get cur.cur i) cur.row)
          | VLoc i ->
              fun () -> Reducer.update cell (Array.unsafe_get cur.locals i)
          | VFun f -> fun () -> Reducer.update cell (f ()))
      | Blocked_ast.NextAdd exprs -> (
          (* the push body is inlined into the statement closure: a spawn
             is one indirect call per field, not an extra hop through a
             shared push closure *)
          match Array.of_list (List.map ce exprs) with
          | [| f0 |] ->
              fun () ->
                let b = !sink_next in
                if b.n = seg_rows then next_segment b;
                let n = b.n in
                Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
                b.n <- n + 1
          | [| f0; f1 |] ->
              fun () ->
                let b = !sink_next in
                if b.n = seg_rows then next_segment b;
                let n = b.n in
                Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
                Array.unsafe_set (Array.unsafe_get b.cols 1) n (f1 ());
                b.n <- n + 1
          | [| f0; f1; f2 |] ->
              fun () ->
                let b = !sink_next in
                if b.n = seg_rows then next_segment b;
                let n = b.n in
                Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
                Array.unsafe_set (Array.unsafe_get b.cols 1) n (f1 ());
                Array.unsafe_set (Array.unsafe_get b.cols 2) n (f2 ());
                b.n <- n + 1
          | _ ->
              let push = make_push exprs in
              fun () -> push !sink_next)
      | Blocked_ast.NextsAdd (site, exprs) -> (
          match Array.of_list (List.map ce exprs) with
          | [| f0 |] ->
              fun () ->
                let b = Array.unsafe_get !sink_sites site in
                if b.n = seg_rows then next_segment b;
                let n = b.n in
                Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
                b.n <- n + 1
          | [| f0; f1 |] ->
              fun () ->
                let b = Array.unsafe_get !sink_sites site in
                if b.n = seg_rows then next_segment b;
                let n = b.n in
                Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
                Array.unsafe_set (Array.unsafe_get b.cols 1) n (f1 ());
                b.n <- n + 1
          | [| f0; f1; f2 |] ->
              fun () ->
                let b = Array.unsafe_get !sink_sites site in
                if b.n = seg_rows then next_segment b;
                let n = b.n in
                Array.unsafe_set (Array.unsafe_get b.cols 0) n (f0 ());
                Array.unsafe_set (Array.unsafe_get b.cols 1) n (f1 ());
                Array.unsafe_set (Array.unsafe_get b.cols 2) n (f2 ());
                b.n <- n + 1
          | _ ->
              let push = make_push exprs in
              fun () -> push (Array.unsafe_get !sink_sites site))
    in
    let kernel bs =
      let k = cb bs in
      if has_continue bs then fun () -> (try k () with Continue_row -> ())
      else k
    in
    let bfsm = t.Blocked_ast.bfs_method in
    let blkm = t.Blocked_ast.blocked_method in
    let is_base_k = ce bfsm.Blocked_ast.is_base in
    let bfs_base = kernel bfsm.Blocked_ast.base in
    let bfs_ind = kernel bfsm.Blocked_ast.inductive in
    let blk_base = kernel blkm.Blocked_ast.base in
    let blk_ind = kernel blkm.Blocked_ast.inductive in
    let step ~src ~blocked ~next ~sites =
      sink_next := next;
      sink_sites := sites;
      let base_k = if blocked then blk_base else bfs_base in
      let ind_k = if blocked then blk_ind else bfs_ind in
      let nbase = ref 0 in
      let locals = cur.locals in
      iter_segments src (fun cols n ->
          cur.cur <- cols;
          if nlocals = 0 then
            for r = 0 to n - 1 do
              cur.row <- r;
              if is_base_k () <> 0 then begin
                incr nbase;
                base_k ()
              end
              else ind_k ()
            done
          else
            for r = 0 to n - 1 do
              cur.row <- r;
              for i = 0 to nlocals - 1 do
                Array.unsafe_set locals i 0
              done;
              if is_base_k () <> 0 then begin
                incr nbase;
                base_k ()
              end
              else ind_k ()
            done);
      sink_next := dummy;
      sink_sites := [||];
      !nbase
    in
    { nparams; num_spawns = t.Blocked_ast.num_spawns; step }
end
