open Vc_core

type plant = Shl_trunc | Spawn_skew

let plant_name = function Shl_trunc -> "shl-trunc" | Spawn_skew -> "spawn-skew"

let plant_of_string = function
  | "shl-trunc" -> Some Shl_trunc
  | "spawn-skew" -> Some Spawn_skew
  | _ -> None

(* ---- planted mutations (compiled backend only) ---- *)

let rec mask_shifts_expr = function
  | (Vc_lang.Ast.Int _ | Vc_lang.Ast.Bool _ | Vc_lang.Ast.Var _) as e -> e
  | Vc_lang.Ast.Unop (op, e) -> Vc_lang.Ast.Unop (op, mask_shifts_expr e)
  | Vc_lang.Ast.Binop (((Vc_lang.Ast.Shl | Vc_lang.Ast.Shr) as op), a, b) ->
      (* the historical peephole bug: the count masked with 62 instead of
         63 drops the low bit of every shift count *)
      Vc_lang.Ast.Binop
        ( op,
          mask_shifts_expr a,
          Vc_lang.Ast.Binop
            (Vc_lang.Ast.Band, mask_shifts_expr b, Vc_lang.Ast.Int 62) )
  | Vc_lang.Ast.Binop (op, a, b) ->
      Vc_lang.Ast.Binop (op, mask_shifts_expr a, mask_shifts_expr b)
  | Vc_lang.Ast.Call (f, args) ->
      Vc_lang.Ast.Call (f, List.map mask_shifts_expr args)

let rec map_stmt_exprs f = function
  | (Vc_lang.Ast.Skip | Vc_lang.Ast.Return) as s -> s
  | Vc_lang.Ast.Seq (a, b) ->
      Vc_lang.Ast.Seq (map_stmt_exprs f a, map_stmt_exprs f b)
  | Vc_lang.Ast.Assign (x, e) -> Vc_lang.Ast.Assign (x, f e)
  | Vc_lang.Ast.If (c, a, b) ->
      Vc_lang.Ast.If (f c, map_stmt_exprs f a, map_stmt_exprs f b)
  | Vc_lang.Ast.While (c, s) -> Vc_lang.Ast.While (f c, map_stmt_exprs f s)
  | Vc_lang.Ast.Reduce (x, e) -> Vc_lang.Ast.Reduce (x, f e)
  | Vc_lang.Ast.Spawn sp ->
      Vc_lang.Ast.Spawn { sp with Vc_lang.Ast.spawn_args = List.map f sp.Vc_lang.Ast.spawn_args }

let rec skew_spawns = function
  | (Vc_lang.Ast.Skip | Vc_lang.Ast.Return | Vc_lang.Ast.Assign _
    | Vc_lang.Ast.Reduce _) as s ->
      s
  | Vc_lang.Ast.Seq (a, b) -> Vc_lang.Ast.Seq (skew_spawns a, skew_spawns b)
  | Vc_lang.Ast.If (c, a, b) -> Vc_lang.Ast.If (c, skew_spawns a, skew_spawns b)
  | Vc_lang.Ast.While (c, s) -> Vc_lang.Ast.While (c, skew_spawns s)
  | Vc_lang.Ast.Spawn sp ->
      let args =
        match sp.Vc_lang.Ast.spawn_args with
        | Vc_lang.Ast.Binop (Vc_lang.Ast.Sub, x, Vc_lang.Ast.Int c) :: rest ->
            Vc_lang.Ast.Binop (Vc_lang.Ast.Sub, x, Vc_lang.Ast.Int (c + 1)) :: rest
        | args -> args
      in
      Vc_lang.Ast.Spawn { sp with Vc_lang.Ast.spawn_args = args }

let mutate plant (p : Vc_lang.Ast.program) =
  let m = p.Vc_lang.Ast.mth in
  match plant with
  | Shl_trunc ->
      {
        p with
        Vc_lang.Ast.mth =
          {
            m with
            Vc_lang.Ast.is_base = mask_shifts_expr m.Vc_lang.Ast.is_base;
            base = map_stmt_exprs mask_shifts_expr m.Vc_lang.Ast.base;
            inductive = map_stmt_exprs mask_shifts_expr m.Vc_lang.Ast.inductive;
          };
      }
  | Spawn_skew ->
      {
        p with
        Vc_lang.Ast.mth =
          { m with Vc_lang.Ast.inductive = skew_spawns m.Vc_lang.Ast.inductive };
      }

(* ---- the driver ---- *)

type outcome =
  | Agree of { checks : int }
  | Diverge of { stage : string; detail : string }
  | Skip of string

exception Found of string * string

let e5 = Vc_mem.Machine.xeon_e5
let hybrid = Policy.Hybrid { max_block = 8; reexpand = true }

let strategies =
  [
    (Policy.Bfs_only, "bfs");
    (hybrid, "reexp/8");
    (Policy.Hybrid { max_block = 16; reexpand = false }, "noreexp/16");
  ]

let show_reducers rs =
  String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) rs)

let check ?plant ?(domains = [ 1; 4 ]) ?(fault_seeds = [ 1 ])
    ?(max_tasks = 100_000) (p : Vc_lang.Ast.program) args =
  match Vc_lang.Interp.run ~max_tasks p args with
  | exception Vc_lang.Interp.Runtime_error msg ->
      Skip (Printf.sprintf "oracle runtime error: %s" msg)
  | exception Vc_lang.Interp.Task_limit_exceeded n ->
      Skip (Printf.sprintf "oracle exceeded %d tasks" n)
  | out -> (
      let expected = out.Vc_lang.Interp.reducers in
      let expected_tasks = Vc_lang.Profile.tasks out.Vc_lang.Interp.profile in
      let checks = ref 0 in
      let fail stage fmt =
        Printf.ksprintf (fun detail -> raise (Found (stage, detail))) fmt
      in
      let agree stage reducers tasks =
        if reducers <> expected || tasks <> expected_tasks then
          fail stage "got %s / %d tasks, want %s / %d tasks"
            (show_reducers reducers) tasks (show_reducers expected)
            expected_tasks;
        incr checks
      in
      try
        let spec = Compile.spec_of_program p ~args in
        let budget = 2 * max_tasks in
        (* cost-model engine over the strategy grid *)
        let engine strategy =
          match Engine.run ~max_tasks:budget ~spec ~machine:e5 ~strategy () with
          | exception Vc_error.Error e when Vc_error.is_budget e -> None
          | r -> if r.Report.oom then None else Some r
        in
        List.iter
          (fun (strategy, sname) ->
            match engine strategy with
            | None -> ()
            | Some r ->
                agree
                  (Printf.sprintf "engine[%s]" sname)
                  r.Report.reducers r.Report.tasks)
          strategies;
        (* wall-clock backends over the blocked IR; the compiled side runs
           the (optionally planted) program *)
        let ir = Backend.Ir (Transform.transform p) in
        let planted_ir =
          match plant with
          | None -> ir
          | Some pl -> Backend.Ir (Transform.transform (mutate pl p))
        in
        let roots = [ Array.of_list args ] in
        let compiled_ref = ref None in
        let show (r : Backend.result) =
          Printf.sprintf "%d/%d tasks depth %d sw %d re %d" r.Backend.tasks
            r.Backend.base_tasks r.Backend.max_depth r.Backend.switches
            r.Backend.reexpansions
        in
        List.iter
          (fun (strategy, sname) ->
            let opts =
              { Backend.default_opts with strategy; max_tasks = budget }
            in
            match Backend.run ~opts Backend.interp ir ~roots with
            | exception Vc_error.Error _ -> () (* budget: skip, as OOM *)
            | b -> (
                agree
                  (Printf.sprintf "blocked[%s]" sname)
                  b.Backend.reducers b.Backend.tasks;
                match Backend.run ~opts Backend.compiled planted_ir ~roots with
                | exception Vc_error.Error e ->
                    (* the blocked run fit the same budget, so a compiled
                       failure is a real divergence, not a skip *)
                    fail
                      (Printf.sprintf "compiled[%s]" sname)
                      "compiled backend failed where blocked succeeded: %s"
                      (Vc_error.to_string e)
                | c ->
                    agree
                      (Printf.sprintf "compiled[%s]" sname)
                      c.Backend.reducers c.Backend.tasks;
                    if not (Backend.equal c b) then
                      fail
                        (Printf.sprintf "compiled[%s]" sname)
                        "six-field report differs from blocked: compiled %s, \
                         blocked %s"
                        (show c) (show b);
                    incr checks;
                    if strategy = hybrid then compiled_ref := Some c))
          strategies;
        (* hybrid multicore x SIMD scheduler *)
        (match engine hybrid with
        | None -> ()
        | Some reference ->
            List.iter
              (fun d ->
                match
                  Domain_sched.run ~chunks:4 ~spec ~machine:e5 ~strategy:hybrid
                    ~domains:d ()
                with
                | exception Vc_error.Error _ -> ()
                | res ->
                    let r = res.Domain_sched.report in
                    if
                      r.Report.reducers <> reference.Report.reducers
                      || r.Report.tasks <> reference.Report.tasks
                      || r.Report.base_tasks <> reference.Report.base_tasks
                    then
                      fail
                        (Printf.sprintf "domains[%d]" d)
                        "got %s / %d tasks, engine has %s / %d tasks"
                        (show_reducers r.Report.reducers)
                        r.Report.tasks
                        (show_reducers reference.Report.reducers)
                        reference.Report.tasks;
                    incr checks)
              domains;
            (* fault-armed engine recovery *)
            List.iter
              (fun seed ->
                let plan =
                  Fault.make ~rate:0.25 ~seed
                    ~sites:[ Fault.Compact; Fault.Alloc ] ()
                in
                match
                  Supervisor.run (fun telemetry ->
                      Engine.run ~max_tasks:budget ~telemetry ~faults:plan ~spec
                        ~machine:e5 ~strategy:hybrid ())
                with
                | Error e when Vc_error.is_budget e -> ()
                | Error e ->
                    fail
                      (Printf.sprintf "fault-engine[seed %d]" seed)
                      "did not recover: %s" (Vc_error.to_string e)
                | Ok o ->
                    let r = o.Supervisor.value in
                    if
                      r.Report.reducers <> reference.Report.reducers
                      || r.Report.tasks <> reference.Report.tasks
                      || r.Report.base_tasks <> reference.Report.base_tasks
                    then
                      fail
                        (Printf.sprintf "fault-engine[seed %d]" seed)
                        "recovered run diverges: got %s / %d tasks"
                        (show_reducers r.Report.reducers)
                        r.Report.tasks;
                    incr checks)
              fault_seeds);
        (* fault-armed compiled backend recovery *)
        (match !compiled_ref with
        | None -> ()
        | Some reference ->
            List.iter
              (fun seed ->
                let plan =
                  Fault.make ~rate:0.25 ~seed ~sites:[ Fault.Alloc ] ()
                in
                match
                  Supervisor.run (fun telemetry ->
                      let opts =
                        {
                          Backend.default_opts with
                          strategy = hybrid;
                          max_tasks = budget;
                          faults = plan;
                          telemetry = Some telemetry;
                        }
                      in
                      Backend.run ~opts Backend.compiled planted_ir ~roots)
                with
                | Error e when Vc_error.is_budget e -> ()
                | Error e ->
                    fail
                      (Printf.sprintf "fault-compiled[seed %d]" seed)
                      "did not recover: %s" (Vc_error.to_string e)
                | Ok o ->
                    let r = o.Supervisor.value in
                    if not (Backend.equal r reference) then
                      fail
                        (Printf.sprintf "fault-compiled[seed %d]" seed)
                        "recovered run diverges from the fault-free run: got \
                         %s %s, expected %s %s"
                        (show_reducers r.Backend.reducers) (show r)
                        (show_reducers reference.Backend.reducers)
                        (show reference);
                    incr checks)
              fault_seeds);
        Agree { checks = !checks }
      with Found (stage, detail) -> Diverge { stage; detail })

let failing ?plant p args =
  match check ?plant ~domains:[] ~fault_seeds:[] p args with
  | Diverge _ -> true
  | Agree _ | Skip _ -> false
