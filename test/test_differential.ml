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
                  if not (Backend.equal r b) then
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
   supervisor must recover — the tripped level re-runs with the site
   disarmed — to the fault-free compiled result, bit-equal on every field
   but wall time. *)
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
                  if not (Backend.equal r reference) then
                    Alcotest.failf
                      "compiled fault recovery diverges under seed %d on %s"
                      fault_seed (describe i p args))
            [ 1; 2; 3 ])
    (List.filteri (fun i _ -> i < 10) cases);
  if !faults_seen = 0 then Alcotest.fail "compiled fault matrix injected nothing";
  if !fallbacks = 0 then
    Alcotest.fail "compiled fault matrix never took the fallback"

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

(* Kernel shapes: the compiled kernels specialize builtin calls on their
   operands' shapes (column, local or constant, in either order) and
   guards on the condition's form ([e != 0] tests [e]; an [if] without
   [else] calls nothing for it; constant guards pick a branch at compile
   time).  Each program below puts every shape on a path the run takes,
   with negative operands and operands >= 2^31 for [mix32], [bit] and
   [popcount] ([bit]'s count stays in [0, 62], where [lsr] is defined).
   The compiled and blocked backends must agree on all six result fields,
   and both, and the engine through [Compile.spec_of_program], must
   reproduce the interpreter's reducers and task counts. *)
let shape_programs =
  [
    ( "builtins",
      {|reducer sum acc;
reducer sum leaves;

def f(n, a, b) =
  if n <= 0 then {
    reduce(leaves, 1);
    reduce(acc, mix32(a, 7) + 3 * mix32(7, a) + 5 * mix32(a, b) + 7 * mix32(b, a));
    reduce(acc, bit(a, 3) + 2 * bit(a, 40) + 4 * bit(1234567, n + 5) + 8 * bit(a, n + 31));
    reduce(acc, popcount(a) + 3 * popcount(b) + abs(a) + sq(b));
    reduce(acc, min2(a, 5) + max2(5, a) + min2(b, a) + max2(a, b) + min2(a, b));
    k := a - b;
    reduce(acc, mix32(k, 3) + mix32(3, k) + bit(k, 50) + popcount(k) + abs(k));
  } else {
    k := n + 1;
    x := mix32(a, 11);
    y := mix32(11, x) + bit(x, 5) + 2 * bit(99, k) + 4 * bit(a, k) + popcount(a);
    x := x + mix32(x, n) - mix32(k, x) + abs(x - a) + sq(k) + min2(x, b) + max2(b, x);
    spawn f(n - 1, x - 3000000000, b * 3 + bit(b, 62) + popcount(b));
    spawn f(n - 1, a ^ y, mix32(b, 3) + mix32(a + b, 9) + mix32(9, b - a));
    if bit(a, 1) != 0 then {
      spawn f(n - 1, abs(a) + min2(a, b), max2(a, 1) - sq(b));
    }
  }
|}
    );
    ( "guards",
      {|reducer sum hits;
reducer sum leaves;
reducer max top;

def g(n, a, b) =
  if n <= 0 then {
    reduce(leaves, 1);
    if (a & 1) != 0 then {
      reduce(hits, 1);
    }
    if 0 != (b & 2) then {
      reduce(hits, 10);
    } else {
      reduce(hits, 100);
    }
    if (a & 4) == 0 then {
      reduce(hits, 1000);
    }
    if a != 0 then {
      reduce(hits, 3);
    }
    if 2 != 0 then {
      reduce(hits, 20);
    }
    if 0 != 0 then {
      reduce(hits, 99999);
    }
    if false then {
      reduce(hits, 88888);
    } else {
      reduce(hits, 40);
    }
    t := popcount(b & 7);
    while (t != 0) {
      reduce(top, t + 10 * a);
      t := t - 1;
    }
    t := t + (a & 12);
    reduce(hits, 100000 * t);
    if b == 0 then {
      return;
    }
    reduce(hits, 5);
  } else {
    t := a & 3;
    if t != 0 then {
      spawn g(n - 1, a + b, b + 1);
    }
    if 0 != (b & 1) then {
      spawn g(n - 1, a * 3 + 1, b);
    } else {
      spawn g(n - 2, b, a + 2);
    }
    if (t & 1) == 0 then {
      spawn g(n - 2, a + 1, b + 3);
    }
    if true then {
      t := 0;
    }
    if 0 != 0 then {
      spawn g(n - 1, 99, 99);
    }
    c := popcount(b & 7);
    while c != 0 {
      t := t + c;
      c := c - 1;
    }
    if (a & 8) != 0 then {
      return;
    }
    spawn g(n - 1, b + t, a);
  }
|}
    );
  ]

let shape_args =
  [ [ 5; 6; 3 ]; [ 4; -5; 2 ]; [ 4; 3000000000; 0 ]; [ 5; -2147483649; 9 ]; [ 3; 0; 0 ] ]

let check_kernel_shapes () =
  let pp_reducers rs =
    String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) rs)
  in
  let checked = ref 0 in
  List.iter
    (fun (name, src) ->
      let p = Vc_lang.Parser.parse_string src in
      (match Vc_lang.Validate.check p with
      | Ok _ -> ()
      | Error es -> Alcotest.failf "%s is invalid: %s" name (String.concat "; " es));
      let t = Transform.transform p in
      List.iter
        (fun args ->
          let label = Printf.sprintf "%s(%s)" name (String.concat ", " (List.map string_of_int args)) in
          let out = Vc_lang.Interp.run p args in
          let expected = out.Vc_lang.Interp.reducers in
          let expected_tasks = Vc_lang.Profile.tasks out.Vc_lang.Interp.profile in
          let agree what reducers tasks =
            if reducers <> expected || tasks <> expected_tasks then
              Alcotest.failf "%s on %s: got %s / %d tasks, interpreter %s / %d tasks" what
                label (pp_reducers reducers) tasks (pp_reducers expected) expected_tasks;
            incr checked
          in
          let spec = Compile.spec_of_program p ~args in
          List.iter
            (fun (strategy, sname) ->
              let r = Engine.run ~spec ~machine:e5 ~strategy () in
              agree ("engine " ^ sname) r.Report.reducers r.Report.tasks;
              let opts = { Backend.default_opts with strategy } in
              let run b = Backend.run ~opts b (Backend.Ir t) ~roots:[ Array.of_list args ] in
              let c = run Backend.compiled and i = run Backend.interp in
              agree ("compiled " ^ sname) c.Backend.reducers c.Backend.tasks;
              agree ("blocked " ^ sname) i.Backend.reducers i.Backend.tasks;
              if not (Backend.equal c i) then
                Alcotest.failf
                  "%s on %s: compiled %d/%d tasks depth %d sw %d re %d, blocked %d/%d \
                   tasks depth %d sw %d re %d"
                  sname label c.Backend.tasks c.Backend.base_tasks c.Backend.max_depth
                  c.Backend.switches c.Backend.reexpansions i.Backend.tasks
                  i.Backend.base_tasks i.Backend.max_depth i.Backend.switches
                  i.Backend.reexpansions)
            strategies)
        shape_args)
    shape_programs;
  let want = List.length shape_programs * List.length shape_args * List.length strategies * 3 in
  if !checked <> want then Alcotest.failf "%d kernel-shape checks ran, %d expected" !checked want

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
          Alcotest.test_case "builtin and guard kernels = blocked, interpreter, engine"
            `Quick check_kernel_shapes;
          Alcotest.test_case "fault-armed compiled backend recovers" `Quick
            check_compiled_fault_recovery;
          Alcotest.test_case "domains matrix bit-equal to engine" `Quick
            check_domains_matrix;
          Alcotest.test_case "fault-armed domains recover per chunk" `Quick
            check_domains_fault_recovery;
        ] );
    ]
