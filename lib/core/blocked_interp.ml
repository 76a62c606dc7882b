open Vc_lang
module Soa = Codegen.Soa

exception Continue_thread

let instantiate (t : Blocked_ast.t) ~(reducers : Reducer.set) : Soa.inst =
  let program = t.Blocked_ast.source in
  let layout = Codegen.layout_of program in
  let nparams = Array.length (Codegen.params layout) in
  (* Enqueue sinks write through these cells; [step] points them at its
     destination levels. *)
  let sink_next = ref (Soa.make_buf ~nfields:nparams) in
  let sink_sites = ref [||] in
  (* A push evaluates every child argument into a per-site scratch frame,
     then appends it column-wise: nothing is allocated per child. *)
  let compile_push exprs =
    let fs = Array.of_list (List.map (Codegen.compile_expr layout) exprs) in
    let scratch = Array.make (Array.length fs) 0 in
    fun rt ->
      for i = 0 to Array.length fs - 1 do
        scratch.(i) <- fs.(i) rt
      done;
      scratch
  in
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
          let cell = Reducer.find reducers name in
          let f = Codegen.compile_expr layout expr in
          fun rt -> Reducer.update cell (f rt)
      | Blocked_ast.NextAdd exprs ->
          let eval = compile_push exprs in
          fun rt -> Soa.push !sink_next (eval rt)
      | Blocked_ast.NextsAdd (site, exprs) ->
          let eval = compile_push exprs in
          fun rt -> Soa.push !sink_sites.(site) (eval rt)
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
  let step ~src ~blocked ~next ~sites =
    sink_next := next;
    sink_sites := sites;
    let fbase, find = if blocked then (blk_base, blk_ind) else (bfs_base, bfs_ind) in
    let nbase = ref 0 in
    (* each thread runs on a private copy of its row: param assignments
       write [rt.frame], never the level being stepped *)
    let frame = rt.Codegen.frame in
    Soa.iter_segments src (fun cols rows ->
        for r = 0 to rows - 1 do
          for f = 0 to nparams - 1 do
            frame.(f) <- cols.(f).(r)
          done;
          Codegen.reset_locals rt;
          if is_base rt <> 0 then begin
            incr nbase;
            fbase rt
          end
          else find rt
        done);
    !nbase
  in
  { Soa.nparams; num_spawns = t.Blocked_ast.num_spawns; step }
