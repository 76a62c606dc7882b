(* Wall-clock backend tests: the blocked-interpreter and compiled-SoA
   backends against the engine's reference results on the real benchmark
   registry, plus the supervised-execution contract (budgets, faults,
   domains) that `vcilk run --engine blocked|compiled` relies on.

   The differential suite covers random programs; this file pins the
   8-benchmark registry and the option-surface corners (multi-root
   sources, budget errors, domains). *)

open Vc_core

let quick_ctx = lazy (Vc_exp.Sweep.create ~quick:true ~cache_dir:None ())

let source_of name =
  let entry = Vc_bench.Registry.find name in
  Vc_exp.Sweep.backend_source (Lazy.force quick_ctx) entry

let dsl_names = [ "fib"; "parentheses"; "binomial"; "nqueens"; "uts" ]

let all_names =
  List.map (fun (e : Vc_bench.Registry.entry) -> e.Vc_bench.Registry.name)
    Vc_bench.Registry.all

let reducer_str rs =
  String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) rs)

let sorted rs = List.sort compare rs

(* Every backend, on every registry benchmark, must reproduce the engine's
   reducers, task counts and base-task counts for the same hybrid
   strategy.  (Reducers compare as sorted assoc lists: the engine reports
   spec declaration order, the IR path reducer-declaration order.) *)
let check_backends_vs_engine () =
  let ctx = Lazy.force quick_ctx in
  let block = 256 in
  List.iter
    (fun name ->
      let entry = Vc_bench.Registry.find name in
      let reference =
        Vc_exp.Sweep.hybrid ctx entry Vc_mem.Machine.xeon_e5 ~reexpand:true
          ~block
      in
      if not reference.Report.oom then
        List.iter
          (fun backend ->
            let r =
              Vc_exp.Sweep.backend_run ctx entry
                ~engine:backend.Backend.name ~block
            in
            if
              sorted r.Backend.reducers <> sorted reference.Report.reducers
              || r.Backend.tasks <> reference.Report.tasks
              || r.Backend.base_tasks <> reference.Report.base_tasks
            then
              Alcotest.failf
                "%s backend diverges from the engine on %s: got %s / %d \
                 tasks (%d base), want %s / %d tasks (%d base)"
                backend.Backend.name name
                (reducer_str r.Backend.reducers)
                r.Backend.tasks r.Backend.base_tasks
                (reducer_str reference.Report.reducers)
                reference.Report.tasks reference.Report.base_tasks)
          Backend.all)
    all_names

(* On DSL sources — where interpreted and compiled dispatch actually
   differ — the two backends must agree on every result field except
   wall clock, across the full strategy grid. *)
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
       [ 16; 256; 4096 ]

let scrub (r : Backend.result) = { r with Backend.wall_seconds = 0.0 }

let check_compiled_vs_interp () =
  List.iter
    (fun name ->
      let source, roots = source_of name in
      List.iter
        (fun (strategy, sname) ->
          let opts = { Backend.default_opts with strategy } in
          let bi = Backend.run ~opts Backend.interp source ~roots in
          let bc = Backend.run ~opts Backend.compiled source ~roots in
          if scrub bi <> scrub bc then
            Alcotest.failf
              "compiled differs from blocked on %s [%s]: %s / %d tasks (%d \
               base) depth %d sw %d re %d vs %s / %d tasks (%d base) depth \
               %d sw %d re %d"
              name sname
              (reducer_str bc.Backend.reducers)
              bc.Backend.tasks bc.Backend.base_tasks bc.Backend.max_depth
              bc.Backend.switches bc.Backend.reexpansions
              (reducer_str bi.Backend.reducers)
              bi.Backend.tasks bi.Backend.base_tasks bi.Backend.max_depth
              bi.Backend.switches bi.Backend.reexpansions)
        strategies)
    dsl_names

(* A supervised backend run: [opts] on the supervisor's counting hub. *)
let supervised ?(opts = Backend.default_opts) backend source ~roots =
  Supervisor.run (fun telemetry ->
      Backend.run ~opts:{ opts with telemetry = Some telemetry } backend source
        ~roots)

(* Fault-armed supervised runs must recover to the fault-free results on
   both backends; the fired-fallback assertions keep it non-vacuous — in
   particular the interp backend on the IR source fib, whose levels run on
   the closure stepper under the shared scheduler's fault site. *)
let check_fault_recovery () =
  let fallbacks = ref 0 in
  let interp_ir_fallbacks = ref 0 in
  List.iter
    (fun name ->
      let source, roots = source_of name in
      List.iter
        (fun backend ->
          let reference = Backend.run backend source ~roots in
          List.iter
            (fun seed ->
              let plan =
                Fault.make ~rate:0.25 ~seed ~sites:[ Fault.Alloc ] ()
              in
              let opts = { Backend.default_opts with faults = plan } in
              match supervised ~opts backend source ~roots with
              | Error e ->
                  Alcotest.failf "%s on %s seed %d did not recover (%s)"
                    backend.Backend.name name seed (Vc_error.to_string e)
              | Ok o ->
                  fallbacks := !fallbacks + o.Supervisor.fallbacks;
                  (match (source, backend.Backend.name) with
                  | Backend.Ir _, "blocked" when name = "fib" ->
                      interp_ir_fallbacks :=
                        !interp_ir_fallbacks + o.Supervisor.fallbacks
                  | _ -> ());
                  let r = o.Supervisor.value in
                  if
                    r.Backend.reducers <> reference.Backend.reducers
                    || r.Backend.tasks <> reference.Backend.tasks
                    || r.Backend.base_tasks <> reference.Backend.base_tasks
                  then
                    Alcotest.failf
                      "%s on %s seed %d recovers to wrong results: %s / %d, \
                       want %s / %d"
                      backend.Backend.name name seed
                      (reducer_str r.Backend.reducers)
                      r.Backend.tasks
                      (reducer_str reference.Backend.reducers)
                      reference.Backend.tasks)
            [ 1; 2; 3 ])
        Backend.all)
    [ "fib"; "nqueens" ];
  if !fallbacks = 0 then Alcotest.fail "fault matrix never fired a fallback";
  if !interp_ir_fallbacks = 0 then
    Alcotest.fail "interp backend never fired a fallback on the IR source fib"

(* The chunked-domains path must be bit-equal to the single-context run
   at every domain count, on both backends and both source kinds. *)
let check_domains () =
  List.iter
    (fun name ->
      let source, roots = source_of name in
      List.iter
        (fun backend ->
          let single = Backend.run backend source ~roots in
          let chunked =
            List.map
              (fun domains ->
                let opts = { Backend.default_opts with domains = Some domains } in
                (domains, Backend.run ~opts backend source ~roots))
              [ 1; 2; 4; 64 ]
          in
          (* chunking may legitimately change switch/re-expansion counters
             (smaller frontiers); the execution results may not *)
          List.iter
            (fun (domains, (r : Backend.result)) ->
              if
                r.Backend.reducers <> single.Backend.reducers
                || r.Backend.tasks <> single.Backend.tasks
                || r.Backend.base_tasks <> single.Backend.base_tasks
              then
                Alcotest.failf "%s on %s domains=%d diverges: %s / %d tasks"
                  backend.Backend.name name domains
                  (reducer_str r.Backend.reducers)
                  r.Backend.tasks)
            chunked;
          (* and the whole report must be independent of the domain count *)
          match chunked with
          | (_, first) :: rest ->
              List.iter
                (fun (domains, r) ->
                  if scrub r <> scrub first then
                    Alcotest.failf
                      "%s on %s: domains=%d report differs from domains=1"
                      backend.Backend.name name domains)
                rest
          | [] -> ())
        Backend.all)
    [ "fib"; "uts"; "knapsack" ]

(* Budget violations surface as typed errors through the supervisor. *)
let check_budgets () =
  let source, roots = source_of "fib" in
  List.iter
    (fun backend ->
      (match
         supervised
           ~opts:{ Backend.default_opts with max_tasks = 100 }
           backend source ~roots
       with
      | Error e -> (
          match e.Vc_error.kind with
          | Vc_error.Budget_exceeded _ -> ()
          | _ ->
              Alcotest.failf "%s task budget raised %s" backend.Backend.name
                (Vc_error.to_string e))
      | Ok _ -> Alcotest.failf "%s ignored the task budget" backend.Backend.name);
      let budgets = Supervisor.budgets ~max_live_frames:4 () in
      match
        supervised
          ~opts:{ Backend.default_opts with budgets }
          backend source ~roots
      with
      | Error e -> (
          match e.Vc_error.kind with
          | Vc_error.Budget_exceeded _ -> ()
          | _ ->
              Alcotest.failf "%s frame budget raised %s" backend.Backend.name
                (Vc_error.to_string e))
      | Ok _ ->
          Alcotest.failf "%s ignored the live-frame budget" backend.Backend.name)
    Backend.all

(* Multi-root sources: several root frames build one shared frontier —
   reducers must equal the sum of the per-root runs (all registry
   reducers are monoid sums on these benchmarks). *)
let check_multi_root () =
  let source, _ = source_of "fib" in
  let run roots backend = Backend.run backend source ~roots in
  List.iter
    (fun backend ->
      let both = run [ [| 12 |]; [| 10 |] ] backend in
      let a = run [ [| 12 |] ] backend in
      let b = run [ [| 10 |] ] backend in
      let sum =
        List.map2
          (fun (n, x) (n', y) ->
            if n <> n' then Alcotest.fail "reducer order drifted";
            (n, x + y))
          a.Backend.reducers b.Backend.reducers
      in
      if
        both.Backend.reducers <> sum
        || both.Backend.tasks <> a.Backend.tasks + b.Backend.tasks
      then
        Alcotest.failf "%s multi-root run is not the sum of its parts: %s, %d \
                        tasks"
          backend.Backend.name
          (reducer_str both.Backend.reducers)
          both.Backend.tasks)
    Backend.all

let () =
  Alcotest.run "vc_backend"
    [
      ( "backend",
        [
          Alcotest.test_case "all backends match the engine on the registry"
            `Quick check_backends_vs_engine;
          Alcotest.test_case "compiled = blocked on every field (DSL grid)"
            `Quick check_compiled_vs_interp;
          Alcotest.test_case "fault-armed backends recover bit-equal" `Quick
            check_fault_recovery;
          Alcotest.test_case "domains matrix bit-equal to single context"
            `Quick check_domains;
          Alcotest.test_case "budget violations are typed errors" `Quick
            check_budgets;
          Alcotest.test_case "multi-root frontier sums per-root results"
            `Quick check_multi_root;
        ] );
    ]
