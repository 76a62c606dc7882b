open Vc_lang

(* A level is a list of frames kept in reverse push order, with its size
   alongside so the scheduler never walks a level just to count it. *)
type level = { mutable rev : int array list; mutable n : int }

let new_level () = { rev = []; n = 0 }
let size l = l.n

let clear l =
  l.rev <- [];
  l.n <- 0

let frames l = List.rev l.rev

let push l frame =
  l.rev <- frame :: l.rev;
  l.n <- l.n + 1

let of_frames ~nparams fs =
  let l = new_level () in
  List.iter
    (fun f ->
      if Array.length f <> nparams then
        invalid_arg
          (Printf.sprintf "Blocked_interp.of_frames: root frame has %d fields, %d expected"
             (Array.length f) nparams);
      (* copy: threads alias their frame into the codegen rt *)
      push l (Array.copy f))
    fs;
  l

type inst = {
  nparams : int;
  num_spawns : int;
  step : src:level -> blocked:bool -> next:level -> sites:level array -> int;
  scalar :
    on_task:(depth:int -> base:bool -> unit) -> depth:int -> int array -> unit;
}

exception Continue_thread

let instantiate (t : Blocked_ast.t) ~(reducers : Reducer.set) : inst =
  let program = t.Blocked_ast.source in
  let layout = Codegen.layout_of program in
  let nparams = Array.length (Codegen.params layout) in
  (* Enqueue sinks write through these cells; [step] and [scalar] point
     them at their destination levels. *)
  let sink_next = ref (new_level ()) in
  let sink_sites = ref [||] in
  let reduce name v = Reducer.reduce reducers name v in
  let compile_b (bs : Blocked_ast.bstmt) : Codegen.rt -> unit =
    let rec go (bs : Blocked_ast.bstmt) : Codegen.rt -> unit =
      match bs with
      | Blocked_ast.BSkip -> fun _ -> ()
      | Blocked_ast.Continue -> fun _ -> raise Continue_thread
      | Blocked_ast.BSeq (a, b) ->
          let fa = go a and fb = go b in
          fun rt ->
            fa rt;
            fb rt
      | Blocked_ast.BAssign (name, expr) ->
          (* reuse the statement compiler for the assignment slot logic *)
          Codegen.compile_stmt layout
            ~reduce:(fun _ _ -> ())
            ~spawn:(fun ~site:_ _ -> ())
            (Ast.Assign (name, expr))
      | Blocked_ast.BIf (c, a, b) ->
          let fc = Codegen.compile_expr layout c in
          let fa = go a and fb = go b in
          fun rt -> if fc rt <> 0 then fa rt else fb rt
      | Blocked_ast.BWhile (c, body) ->
          let fc = Codegen.compile_expr layout c in
          let fbody = go body in
          fun rt ->
            while fc rt <> 0 do
              fbody rt
            done
      | Blocked_ast.BReduce (name, expr) ->
          let f = Codegen.compile_expr layout expr in
          fun rt -> reduce name (f rt)
      | Blocked_ast.NextAdd exprs ->
          let fs = Array.of_list (List.map (Codegen.compile_expr layout) exprs) in
          fun rt -> push !sink_next (Array.map (fun f -> f rt) fs)
      | Blocked_ast.NextsAdd (site, exprs) ->
          let fs = Array.of_list (List.map (Codegen.compile_expr layout) exprs) in
          fun rt -> push !sink_sites.(site) (Array.map (fun f -> f rt) fs)
    in
    let f = go bs in
    fun rt -> try f rt with Continue_thread -> ()
  in
  let is_base = Codegen.compile_expr layout t.Blocked_ast.bfs_method.Blocked_ast.is_base in
  let bfs_base = compile_b t.Blocked_ast.bfs_method.Blocked_ast.base in
  let bfs_ind = compile_b t.Blocked_ast.bfs_method.Blocked_ast.inductive in
  let blk_base = compile_b t.Blocked_ast.blocked_method.Blocked_ast.base in
  let blk_ind = compile_b t.Blocked_ast.blocked_method.Blocked_ast.inductive in
  let rt = Codegen.make_rt layout in
  let nbase = ref 0 in
  let run_thread ~fbase ~find frame =
    (* Frames are enqueued once and consumed once, so the rt can alias the
       frame array directly instead of blitting it into a scratch copy —
       this removes the dominant per-thread churn (one blit per task).
       Param assignments write through the alias, which is fine: nothing
       reads a frame after its thread ran. *)
    Codegen.set_frame rt frame;
    Codegen.reset_locals rt;
    if is_base rt <> 0 then begin
      incr nbase;
      fbase rt
    end
    else find rt
  in
  let step ~src ~blocked ~next ~sites =
    sink_next := next;
    sink_sites := sites;
    nbase := 0;
    let fbase, find = if blocked then (blk_base, blk_ind) else (bfs_base, bfs_ind) in
    let threads = frames src in
    (* consumed: the scheduler's level pool must not keep them alive *)
    clear src;
    List.iter (run_thread ~fbase ~find) threads;
    !nbase
  in
  (* Scalar subtree execution (the fault-quarantine fallback): the bfs
     flavor, depth-first over an explicit stack, one frame at a time. *)
  let children = new_level () in
  let scalar ~on_task ~depth frame =
    sink_next := children;
    let rec go = function
      | [] -> ()
      | (fr, d) :: rest ->
          Codegen.set_frame rt fr;
          Codegen.reset_locals rt;
          if is_base rt <> 0 then begin
            on_task ~depth:d ~base:true;
            bfs_base rt;
            go rest
          end
          else begin
            on_task ~depth:d ~base:false;
            clear children;
            bfs_ind rt;
            (* [rev] holds the last child first: the first child ends on top *)
            go (List.fold_left (fun st ch -> (ch, d + 1) :: st) rest children.rev)
          end
    in
    go [ (frame, depth) ]
  in
  { nparams; num_spawns = t.Blocked_ast.num_spawns; step; scalar }
