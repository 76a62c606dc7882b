(* Differential test harness: every execution engine must agree with the
   sequential interpreter on every random program.

   For each generated (program, args) pair the oracle is
   [Vc_lang.Interp.run]; the candidates are the sequential spec executor
   ([Seq_exec]), the measured engine ([Engine]) across block sizes {4, 8,
   16} x {no-reexpansion, re-expansion} plus pure breadth-first, and the
   direct transformed-AST interpreter (the [Blocked_interp] stepper under
   the interp backend).  Reducer values
   AND executed task counts must match exactly (OOM runs are skipped —
   they deliberately report nothing).

   The generator is seeded explicitly so CI can fan out over seeds:
   VC_PROP_SEED=n (default 42) selects the program stream,
   VC_PROP_COUNT=n (default 60) its length. *)

open Vc_core

let e5 = Vc_mem.Machine.xeon_e5

let seed =
  match Sys.getenv_opt "VC_PROP_SEED" with
  | Some s -> (try int_of_string s with _ -> 42)
  | None -> 42

let count =
  match Sys.getenv_opt "VC_PROP_COUNT" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 60)
  | None -> 60

(* One deterministic stream of programs per seed. *)
let cases =
  let st = Random.State.make [| seed |] in
  List.init count (fun i ->
      let p = Vc_fuzz.Gen.program st in
      let args = Vc_fuzz.Gen.args p st in
      (i, p, args))

let strategies =
  (Policy.Bfs_only, "bfs")
  :: List.concat_map
       (fun block ->
         [
           ( Policy.Hybrid { max_block = block; reexpand = false },
             Printf.sprintf "noreexp/%d" block );
           ( Policy.Hybrid { max_block = block; reexpand = true },
             Printf.sprintf "reexp/%d" block );
         ])
       [ 4; 8; 16 ]

let describe i p args =
  Printf.sprintf "case %d (seed %d)\n%s\nargs: %s" i seed
    (Vc_lang.Pp.program_to_string p)
    (String.concat ", " (List.map string_of_int args))

let check_agreement () =
  let checked = ref 0 in
  List.iter
    (fun (i, p, args) ->
      let out = Vc_lang.Interp.run ~max_tasks:100_000 p args in
      let expected = out.Vc_lang.Interp.reducers in
      let expected_tasks = Vc_lang.Profile.tasks out.Vc_lang.Interp.profile in
      let spec = Compile.spec_of_program p ~args in
      let agree what reducers tasks =
        if reducers <> expected || tasks <> expected_tasks then
          Alcotest.failf "%s disagrees with the interpreter on %s:\n%s\ngot %s, %d tasks"
            what
            (Printf.sprintf "reducers %s / %d tasks"
               (String.concat ","
                  (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) expected))
               expected_tasks)
            (describe i p args)
            (String.concat ","
               (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) reducers))
            tasks;
        incr checked
      in
      let seq = Seq_exec.run ~spec ~machine:e5 () in
      agree "seq_exec" seq.Report.reducers seq.Report.tasks;
      List.iter
        (fun (strategy, sname) ->
          let r = Engine.run ~spec ~machine:e5 ~strategy () in
          if not r.Report.oom then
            agree (Printf.sprintf "engine[%s]" sname) r.Report.reducers r.Report.tasks)
        strategies;
      let t = Transform.transform p in
      List.iter
        (fun (strategy, sname) ->
          let opts = { Backend.default_opts with strategy } in
          match
            Backend.run ~opts Backend.interp (Backend.Ir t)
              ~roots:[ Array.of_list args ]
          with
          | b ->
              agree
                (Printf.sprintf "blocked_interp[%s]" sname)
                b.Backend.reducers b.Backend.tasks
          | exception
              Vc_error.Error
                { Vc_error.kind = Vc_error.Budget_exceeded { resource = Vc_error.Task_budget; _ }; _ }
            -> ())
        strategies)
    cases;
  (* 1 seq + 7 engine strategies + 7 blocked_interp strategies per case,
     minus skipped OOM/limit runs; the floor catches a silently-vacuous
     suite *)
  if !checked < count * 8 then
    Alcotest.failf "only %d agreement checks ran (expected >= %d)" !checked (count * 8)

(* Engine task counts must also agree with each other across compaction
   engines (partition is a pure reordering). *)
let check_compaction_engines () =
  List.iter
    (fun (i, p, args) ->
      let spec = Compile.spec_of_program p ~args in
      let strategy = Policy.Hybrid { max_block = 8; reexpand = true } in
      let reference = Engine.run ~spec ~machine:e5 ~strategy () in
      List.iter
        (fun compact ->
          let r = Engine.run ~compact ~spec ~machine:e5 ~strategy () in
          if
            r.Report.reducers <> reference.Report.reducers
            || r.Report.tasks <> reference.Report.tasks
          then
            Alcotest.failf "compaction engine %s changes results on %s"
              (Vc_simd.Compact.name compact) (describe i p args))
        [
          Vc_simd.Compact.Sequential;
          Vc_simd.Compact.Full_table;
          Vc_simd.Compact.Factorized { sub_width = 4 };
        ])
    (List.filteri (fun i _ -> i < 20) cases)

(* Fault matrix: for every injected fault site and fault seed, a
   supervised run under the fault plan must recover — via block
   quarantine and scalar re-execution — to exactly the fault-free
   engine's reducers and task counts.  The assertion that fallbacks
   actually fired keeps the matrix from passing vacuously with a plan
   that never trips. *)
let check_fault_recovery () =
  let strategy = Policy.Hybrid { max_block = 8; reexpand = true } in
  let fallbacks = ref 0 in
  let faults_seen = ref 0 in
  List.iter
    (fun (i, p, args) ->
      let spec = Compile.spec_of_program p ~args in
      let reference = Engine.run ~spec ~machine:e5 ~strategy () in
      if not reference.Report.oom then
        List.iter
          (fun site ->
            List.iter
              (fun fault_seed ->
                let plan =
                  Fault.make ~rate:0.25 ~seed:fault_seed ~sites:[ site ] ()
                in
                match
                  Supervisor.run (fun telemetry ->
                      Engine.run ~telemetry ~faults:plan ~spec ~machine:e5
                        ~strategy ())
                with
                | Error e ->
                    Alcotest.failf "site %s seed %d did not recover (%s) on %s"
                      (Fault.site_name site) fault_seed (Vc_error.to_string e)
                      (describe i p args)
                | Ok o ->
                    fallbacks := !fallbacks + o.Supervisor.fallbacks;
                    faults_seen := !faults_seen + o.Supervisor.faults_seen;
                    let r = o.Supervisor.value in
                    if
                      r.Report.reducers <> reference.Report.reducers
                      || r.Report.tasks <> reference.Report.tasks
                      || r.Report.base_tasks <> reference.Report.base_tasks
                    then
                      Alcotest.failf
                        "scalar fallback diverges under site %s seed %d on %s:\n\
                         got %s / %d tasks, want %s / %d tasks"
                        (Fault.site_name site) fault_seed (describe i p args)
                        (String.concat ","
                           (List.map
                              (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                              r.Report.reducers))
                        r.Report.tasks
                        (String.concat ","
                           (List.map
                              (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                              reference.Report.reducers))
                        reference.Report.tasks)
              [ 1; 2; 3 ])
          [ Fault.Compact; Fault.Alloc ])
    (List.filteri (fun i _ -> i < 10) cases);
  if !faults_seen = 0 then Alcotest.fail "fault matrix injected nothing";
  if !fallbacks = 0 then Alcotest.fail "fault matrix never took the scalar fallback"

(* Domains matrix: the hybrid multicore × SIMD scheduler must be
   bit-equal to the single-context engine on reducers and task counts at
   every domain count, and its merged reports must be identical across
   domain counts except for the documented schedule-model fields
   (strategy, cycles, cpi, space_peak, wall_seconds).  Small chunk/block
   parameters exercise dealing, stealing and merge on shallow random
   trees. *)
let domain_counts = [ 1; 2; 4; 64 ]

let scrub (r : Report.t) =
  {
    r with
    Report.strategy = "";
    cycles = 0.0;
    cpi = 0.0;
    space_peak = 0;
    wall_seconds = 0.0;
  }

let check_domains_matrix () =
  let strategy = Policy.Hybrid { max_block = 8; reexpand = true } in
  let checked = ref 0 in
  List.iter
    (fun (i, p, args) ->
      let spec = Compile.spec_of_program p ~args in
      let reference = Engine.run ~spec ~machine:e5 ~strategy () in
      if not reference.Report.oom then begin
        let results =
          List.map
            (fun domains ->
              ( domains,
                Domain_sched.run ~chunks:4 ~spec ~machine:e5 ~strategy ~domains
                  () ))
            domain_counts
        in
        List.iter
          (fun (domains, (d : Domain_sched.result)) ->
            let r = d.Domain_sched.report in
            if
              r.Report.reducers <> reference.Report.reducers
              || r.Report.tasks <> reference.Report.tasks
              || r.Report.base_tasks <> reference.Report.base_tasks
              || r.Report.levels <> reference.Report.levels
            then
              Alcotest.failf
                "domains=%d diverges from the single-context engine on %s:\n\
                 got %s / %d tasks, want %s / %d tasks"
                domains (describe i p args)
                (String.concat ","
                   (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                      r.Report.reducers))
                r.Report.tasks
                (String.concat ","
                   (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                      reference.Report.reducers))
                reference.Report.tasks;
            if r.Report.strategy <> Printf.sprintf "reexp+d%d" domains then
              Alcotest.failf "domains=%d strategy name is %S" domains
                r.Report.strategy;
            incr checked)
          results;
        (* merged reports bit-equal across domain counts, modulo the
           documented schedule-model fields *)
        match results with
        | (_, first) :: rest ->
            let want = scrub first.Domain_sched.report in
            List.iter
              (fun (domains, (d : Domain_sched.result)) ->
                if not (Report.equal want (scrub d.Domain_sched.report)) then
                  Alcotest.failf
                    "domains=%d merged report differs from domains=%d beyond \
                     the schedule-model fields on %s"
                    domains
                    (List.hd domain_counts)
                    (describe i p args);
                (* same chunk set => same modeled steal-free quantities *)
                if d.Domain_sched.chunks <> first.Domain_sched.chunks then
                  Alcotest.failf "domains=%d chunk count drifted on %s" domains
                    (describe i p args))
              rest
        | [] -> ()
      end)
    (List.filteri (fun i _ -> i < 15) cases);
  if !checked < 15 then
    Alcotest.failf "only %d domain checks ran (expected >= 15)" !checked

(* Compiled backend: the per-spawn-site SoA step kernels must reproduce
   the interpreter's reducers and task counts on every random program,
   across the same strategy grid as the other engines — and must match
   the blocked-interpreter backend on every result field (scheduler
   counters included), since both claim to run the identical Fig. 6
   schedule. *)
let scrub_backend (r : Backend.result) = { r with Backend.wall_seconds = 0.0 }

let check_compiled_backend () =
  let checked = ref 0 in
  List.iter
    (fun (i, p, args) ->
      let out = Vc_lang.Interp.run ~max_tasks:100_000 p args in
      let expected = out.Vc_lang.Interp.reducers in
      let expected_tasks = Vc_lang.Profile.tasks out.Vc_lang.Interp.profile in
      let source = Backend.Ir (Transform.transform p) in
      let roots = [ Array.of_list args ] in
      List.iter
        (fun (strategy, sname) ->
          let opts =
            { Backend.default_opts with strategy; max_tasks = 200_000 }
          in
          match Backend.run ~opts Backend.compiled source ~roots with
          | exception Vc_error.Error _ -> () (* task budget: skip, as OOM *)
          | r ->
              if
                r.Backend.reducers <> expected
                || r.Backend.tasks <> expected_tasks
              then
                Alcotest.failf
                  "compiled backend [%s] disagrees with the interpreter on %s:\n\
                   got %s / %d tasks, want %s / %d tasks"
                  sname (describe i p args)
                  (String.concat ","
                     (List.map
                        (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                        r.Backend.reducers))
                  r.Backend.tasks
                  (String.concat ","
                     (List.map
                        (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                        expected))
                  expected_tasks;
              (match Backend.run ~opts Backend.interp source ~roots with
              | exception Vc_error.Error _ -> ()
              | b ->
                  if scrub_backend r <> scrub_backend b then
                    Alcotest.failf
                      "compiled backend [%s] diverges from the blocked \
                       interpreter beyond wall clock on %s:\n\
                       compiled %d/%d tasks depth %d sw %d re %d, interp \
                       %d/%d tasks depth %d sw %d re %d"
                      sname (describe i p args) r.Backend.tasks
                      r.Backend.base_tasks r.Backend.max_depth
                      r.Backend.switches r.Backend.reexpansions
                      b.Backend.tasks b.Backend.base_tasks b.Backend.max_depth
                      b.Backend.switches b.Backend.reexpansions);
              incr checked)
        strategies)
    cases;
  if !checked < count * 4 then
    Alcotest.failf "only %d compiled-backend checks ran (expected >= %d)"
      !checked (count * 4)

(* Fault-armed compiled backend: an [Alloc]-site fault plan under the
   supervisor must recover — level quarantine + scalar re-execution — to
   the fault-free compiled results, bit-equal on reducers and task
   counts. *)
let check_compiled_fault_recovery () =
  let strategy = Policy.Hybrid { max_block = 8; reexpand = true } in
  let fallbacks = ref 0 in
  let faults_seen = ref 0 in
  List.iter
    (fun (i, p, args) ->
      let source = Backend.Ir (Transform.transform p) in
      let roots = [ Array.of_list args ] in
      let opts = { Backend.default_opts with strategy; max_tasks = 200_000 } in
      match Backend.run ~opts Backend.compiled source ~roots with
      | exception Vc_error.Error _ -> ()
      | reference ->
          List.iter
            (fun fault_seed ->
              let plan =
                Fault.make ~rate:0.25 ~seed:fault_seed ~sites:[ Fault.Alloc ] ()
              in
              match
                Supervisor.run (fun telemetry ->
                    Backend.run
                      ~opts:{ opts with faults = plan; telemetry = Some telemetry }
                      Backend.compiled source ~roots)
              with
              | Error e ->
                  Alcotest.failf
                    "compiled backend seed %d did not recover (%s) on %s"
                    fault_seed (Vc_error.to_string e) (describe i p args)
              | Ok o ->
                  fallbacks := !fallbacks + o.Supervisor.fallbacks;
                  faults_seen := !faults_seen + o.Supervisor.faults_seen;
                  let r = o.Supervisor.value in
                  if
                    r.Backend.reducers <> reference.Backend.reducers
                    || r.Backend.tasks <> reference.Backend.tasks
                    || r.Backend.base_tasks <> reference.Backend.base_tasks
                  then
                    Alcotest.failf
                      "compiled scalar fallback diverges under seed %d on %s"
                      fault_seed (describe i p args))
            [ 1; 2; 3 ])
    (List.filteri (fun i _ -> i < 10) cases);
  if !faults_seen = 0 then Alcotest.fail "compiled fault matrix injected nothing";
  if !fallbacks = 0 then
    Alcotest.fail "compiled fault matrix never took the scalar fallback"

(* Fault-armed domains: per-chunk fault plans (Fault.split) must still
   recover to the fault-free single-context results via per-domain scalar
   fallback. *)
let check_domains_fault_recovery () =
  let strategy = Policy.Hybrid { max_block = 8; reexpand = true } in
  let faults_seen = ref 0 in
  List.iter
    (fun (i, p, args) ->
      let spec = Compile.spec_of_program p ~args in
      let reference = Engine.run ~spec ~machine:e5 ~strategy () in
      if not reference.Report.oom then
        List.iter
          (fun fault_seed ->
            let plan =
              Fault.make ~rate:0.25 ~seed:fault_seed
                ~sites:[ Fault.Compact; Fault.Alloc ] ()
            in
            match
              Supervisor.run (fun telemetry ->
                  Domain_sched.run ~chunks:4 ~telemetry ~faults:plan ~spec
                    ~machine:e5 ~strategy ~domains:2 ())
            with
            | Error e ->
                Alcotest.failf "domains=2 seed %d did not recover (%s) on %s"
                  fault_seed (Vc_error.to_string e) (describe i p args)
            | Ok o ->
                faults_seen := !faults_seen + o.Supervisor.faults_seen;
                let r = o.Supervisor.value.Domain_sched.report in
                if
                  r.Report.reducers <> reference.Report.reducers
                  || r.Report.tasks <> reference.Report.tasks
                  || r.Report.base_tasks <> reference.Report.base_tasks
                then
                  Alcotest.failf
                    "domains=2 scalar fallback diverges under seed %d on %s"
                    fault_seed (describe i p args))
          [ 1; 2; 3 ])
    (List.filteri (fun i _ -> i < 10) cases);
  if !faults_seen = 0 then Alcotest.fail "domains fault matrix injected nothing"

let () =
  Alcotest.run "vc_differential"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "all engines = interpreter (%d programs, seed %d)"
               count seed)
            `Slow check_agreement;
          Alcotest.test_case "compaction engines preserve results" `Quick
            check_compaction_engines;
          Alcotest.test_case "fault injection recovers to exact results" `Quick
            check_fault_recovery;
          Alcotest.test_case "compiled backend = interpreter and blocked interp"
            `Quick check_compiled_backend;
          Alcotest.test_case "fault-armed compiled backend recovers" `Quick
            check_compiled_fault_recovery;
          Alcotest.test_case "domains matrix bit-equal to engine" `Quick
            check_domains_matrix;
          Alcotest.test_case "fault-armed domains recover per chunk" `Quick
            check_domains_fault_recovery;
        ] );
    ]
