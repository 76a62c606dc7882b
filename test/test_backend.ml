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
   wall clock, across the full strategy grid, single-context and over 2
   domains.  Blocks 1–3 make nearly every level switch or re-expand, so
   level buffers are released and reacquired at every depth. *)
let strategies =
  let policies =
    (Policy.Bfs_only, "bfs")
    :: List.concat_map
         (fun block ->
           [
             ( Policy.Hybrid { max_block = block; reexpand = false },
               Printf.sprintf "noreexp/%d" block );
             ( Policy.Hybrid { max_block = block; reexpand = true },
               Printf.sprintf "reexp/%d" block );
           ])
         [ 1; 2; 3; 16; 256; 4096 ]
  in
  List.concat_map
    (fun (strategy, sname) ->
      [
        ({ Backend.default_opts with strategy }, sname);
        ( { Backend.default_opts with strategy; domains = Some 2 },
          sname ^ "/domains=2" );
      ])
    policies

let scrub (r : Backend.result) = { r with Backend.wall_seconds = 0.0 }

let check_compiled_vs_interp () =
  List.iter
    (fun name ->
      let source, roots = source_of name in
      List.iter
        (fun (opts, sname) ->
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

(* Fault-armed supervised runs must recover to exactly the fault-free
   result — all six deterministic fields — on both backends, and every
   executed task must still appear in exactly one traced level (the
   re-run of a tripped level is traced, the tripped attempt is not).  The
   fired-fallback assertions keep it non-vacuous — in particular the
   interp backend on the IR source fib, whose levels run on the closure
   stepper under the shared scheduler's fault site. *)
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
              let sink, levels = Telemetry.level_sink () in
              let outcome =
                Supervisor.run (fun telemetry ->
                    Telemetry.attach telemetry sink;
                    let opts =
                      { Backend.default_opts with
                        faults = plan; telemetry = Some telemetry }
                    in
                    Backend.run ~opts backend source ~roots)
              in
              match outcome with
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
                  if scrub r <> scrub reference then
                    Alcotest.failf
                      "%s on %s seed %d recovers to a different result: %s / \
                       %d tasks (%d base) depth %d sw %d re %d, want %s / %d \
                       tasks (%d base) depth %d sw %d re %d"
                      backend.Backend.name name seed
                      (reducer_str r.Backend.reducers)
                      r.Backend.tasks r.Backend.base_tasks r.Backend.max_depth
                      r.Backend.switches r.Backend.reexpansions
                      (reducer_str reference.Backend.reducers)
                      reference.Backend.tasks reference.Backend.base_tasks
                      reference.Backend.max_depth reference.Backend.switches
                      reference.Backend.reexpansions;
                  let traced =
                    List.fold_left
                      (fun acc (st : Telemetry.stamped) ->
                        match st.Telemetry.ev with
                        | Telemetry.Level { size; _ } -> acc + size
                        | _ -> acc)
                      0 (levels ())
                  in
                  Alcotest.(check int)
                    (Printf.sprintf "%s on %s seed %d: levels sum to tasks"
                       backend.Backend.name name seed)
                    r.Backend.tasks traced)
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

module Soa = Codegen.Soa

(* Run [f] with the process-wide level store empty: a holding level
   first takes every free column, so [Soa.allocated] deltas inside [f]
   count exactly the columns its levels could not reuse.  The holding
   level gives them back afterwards. *)
let with_empty_store f =
  let hold = Soa.make_buf ~nfields:1 in
  while Soa.stored () > 0 do
    for _ = 1 to Soa.seg_rows do
      Soa.push hold [| 0 |]
    done
  done;
  Fun.protect ~finally:(fun () -> Soa.clear hold) f

(* A chain holds one frame per level, so its frontier never reaches a
   chunk's worth of frames: a domains run spends the whole tree in
   frontier expansion, which must honour the same wall deadline and fault
   sites as every other level.  A run stopped by its deadline still hands
   every level it held back to the level store. *)
let chain =
  Backend.Ir
    (Transform.transform
       (Vc_lang.Parser.parse_string
          "reducer sum n;\n\
           def c(a) = if a < 1 then { reduce(n, 1); } else { spawn c(a - 1); }\n"))

let check_expansion_budgets () =
  List.iter
    (fun backend ->
      let opts =
        {
          Backend.default_opts with
          budgets = Supervisor.budgets ~wall_deadline:0.05 ();
          domains = Some 2;
        }
      in
      with_empty_store @@ fun () ->
      let a0 = Soa.allocated () in
      (match supervised ~opts backend chain ~roots:[ [| 3_000_000 |] ] with
      | Error
          { Vc_error.kind = Vc_error.Budget_exceeded { resource = Vc_error.Deadline_wall; _ }; _ }
        ->
          ()
      | Error e ->
          Alcotest.failf "%s expansion raised %s" backend.Backend.name
            (Vc_error.to_string e)
      | Ok _ ->
          Alcotest.failf "%s expansion ignored the wall deadline"
            backend.Backend.name);
      Alcotest.(check int)
        (backend.Backend.name ^ ": the store holds every column the run took")
        (Soa.allocated () - a0) (Soa.stored ()))
    Backend.all

let check_expansion_faults () =
  let roots = [ [| 20_000 |] ] in
  List.iter
    (fun backend ->
      let opts = { Backend.default_opts with domains = Some 2 } in
      let reference = Backend.run ~opts backend chain ~roots in
      let faults = Fault.make ~seed:1 ~sites:[ Fault.Alloc ] () in
      match supervised ~opts:{ opts with faults } backend chain ~roots with
      | Error e ->
          Alcotest.failf "%s expansion did not recover (%s)" backend.Backend.name
            (Vc_error.to_string e)
      | Ok o ->
          if o.Supervisor.faults_seen < 1 then
            Alcotest.failf "%s expansion contained no fault" backend.Backend.name;
          if scrub o.Supervisor.value <> scrub reference then
            Alcotest.failf "%s expansion recovers to a different result"
              backend.Backend.name)
    Backend.all

(* Root frames must have one field per program parameter: both IR
   backends reject a too-long or too-short root with the same
   [Invalid_argument], single-context and chunked. *)
let check_root_arity () =
  let source, _ = source_of "fib" in
  List.iter
    (fun root ->
      let expected =
        Invalid_argument
          (Printf.sprintf
             "Codegen.Soa.of_frames: root frame has %d fields, 1 expected"
             (Array.length root))
      in
      List.iter
        (fun backend ->
          List.iter
            (fun domains ->
              let opts = { Backend.default_opts with domains } in
              Alcotest.check_raises
                (Printf.sprintf "%s, %d-field root, domains %s"
                   backend.Backend.name (Array.length root)
                   (match domains with None -> "none" | Some n -> string_of_int n))
                expected
                (fun () -> ignore (Backend.run ~opts backend source ~roots:[ root ])))
            [ None; Some 2 ])
        Backend.all)
    [ [| 10; 3 |]; [||] ]

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

(* The level event stream (phase, depth, size, base) of a point, in
   emission order. *)
let level_stream ctx point =
  let sink, levels = Telemetry.level_sink () in
  let telemetry = Telemetry.with_sinks [ sink ] in
  ignore (Vc_exp.Sweep.exec ctx ~telemetry point : Vc_exp.Sweep.result);
  List.filter_map
    (fun (st : Telemetry.stamped) ->
      match st.Telemetry.ev with
      | Telemetry.Level { phase; depth; size; base } -> Some (phase, depth, size, base)
      | _ -> None)
    (levels ())

let first_difference a b =
  let rec go i = function
    | x :: xs, y :: ys when x = y -> go (i + 1) (xs, ys)
    | _ -> i
  in
  go 0 (a, b)

(* One Fig. 6 schedule: the backends make the engine's decisions, the
   root's included (a root level that already fills a block starts
   blocked), on every quick benchmark at blocks 1, 3, 16 and 256 under
   each strategy; [Bfs] ignores the block, so it runs once.  Block 1 makes
   nearly every level switch or re-expand, uts's 64 quick roots fill a
   block at 3 and 16.  minmax skips block 3 to keep the case short: its
   quick tree runs about 320K levels there (550K at block 1).  A domains
   run's caller hub sees the expansion's levels only, and they do not
   depend on the domain count. *)
let check_level_streams () =
  let ctx = Lazy.force quick_ctx in
  let grid name =
    (Vc_exp.Sweep.Bfs, 256)
    :: List.concat_map
         (fun block -> [ (Vc_exp.Sweep.Noreexp, block); (Vc_exp.Sweep.Reexp, block) ])
         (if name = "minmax" then [ 1; 16; 256 ] else [ 1; 3; 16; 256 ])
  in
  let stream ?domains name engine (strategy, block) =
    level_stream ctx
      {
        (Vc_exp.Sweep.point (Vc_bench.Registry.find name)) with
        Vc_exp.Sweep.engine;
        strategy;
        block;
        domains;
      }
  in
  List.iter
    (fun name ->
      List.iter
        (fun ((strategy, block) as at) ->
          let want = stream name Vc_exp.Sweep.Model at in
          List.iter
            (fun engine ->
              let got = stream name engine at in
              if got <> want then
                Alcotest.failf
                  "%s on %s [%s/%d]: %d levels, the engine's %d; first \
                   difference at level %d"
                  (Vc_exp.Sweep.engine_name engine)
                  name
                  (Vc_exp.Sweep.strategy_name strategy)
                  block (List.length got) (List.length want)
                  (first_difference got want))
            [ Vc_exp.Sweep.Blocked; Vc_exp.Sweep.Compiled ])
        (grid name);
      List.iter
        (fun engine ->
          let at domains = stream ~domains name engine (Vc_exp.Sweep.Reexp, 256) in
          let one = at 1 in
          List.iter
            (fun domains ->
              if at domains <> one then
                Alcotest.failf "%s on %s: the expansion's levels at %d domains \
                                differ from 1 domain"
                  (Vc_exp.Sweep.engine_name engine) name domains)
            [ 2; 4 ])
        [ Vc_exp.Sweep.Blocked; Vc_exp.Sweep.Compiled ])
    all_names

let frame i = [| i; -i; i * 7 |]

(* A level grows segment by segment: pushes across several segment
   boundaries keep every row, in push order. *)
let check_soa_segments () =
  with_empty_store @@ fun () ->
  let a0 = Soa.allocated () in
  let rows = (2 * Soa.seg_rows) + (Soa.seg_rows / 2) + 3 in
  let b = Soa.make_buf ~nfields:3 in
  Alcotest.(check int) "an empty level holds no segment" 0 (Soa.allocated () - a0);
  for i = 0 to rows - 1 do
    Soa.push b (frame i)
  done;
  let want = List.init rows frame in
  Alcotest.(check int) "size" rows (Soa.size b);
  Alcotest.(check int) "segments (three fields each)" (3 * 3) (Soa.allocated () - a0);
  Alcotest.(check bool) "frames in push order" true (Soa.frames b = want);
  let seen = ref [] in
  Soa.iter_segments b (fun cols n ->
      for r = 0 to n - 1 do
        seen := Array.init 3 (fun f -> cols.(f).(r)) :: !seen
      done);
  Alcotest.(check bool) "segments walk oldest first" true (List.rev !seen = want);
  let c = Soa.of_frames ~nfields:3 want in
  Alcotest.(check bool) "of_frames round trip" true (Soa.frames c = want);
  Alcotest.check_raises "of_frames arity"
    (Invalid_argument "Codegen.Soa.of_frames: root frame has 2 fields, 3 expected")
    (fun () -> ignore (Soa.of_frames ~nfields:3 [ frame 0; [| 1; 2 |] ]));
  Soa.clear b;
  Soa.clear c

(* Clearing a level returns its columns to the store at once, and the
   next level takes them before anything is allocated. *)
let check_soa_reuse () =
  with_empty_store @@ fun () ->
  let a0 = Soa.allocated () in
  let a = Soa.make_buf ~nfields:3 in
  for i = 0 to (3 * Soa.seg_rows) - 1 do
    Soa.push a (frame i)
  done;
  Alcotest.(check int) "three full segments" (3 * 3) (Soa.allocated () - a0);
  Soa.clear a;
  Alcotest.(check int) "cleared level is empty" 0 (Soa.size a);
  Alcotest.(check int) "the store holds its columns" (3 * 3) (Soa.stored ());
  let b = Soa.make_buf ~nfields:3 in
  for i = 0 to (3 * Soa.seg_rows) - 1 do
    Soa.push b (frame (i + 5))
  done;
  Alcotest.(check int) "the next level reuses them" (3 * 3) (Soa.allocated () - a0);
  Alcotest.(check bool) "reused rows are the new ones" true
    (Soa.frames b = List.init (3 * Soa.seg_rows) (fun i -> frame (i + 5)));
  Soa.push a (frame 0);
  Alcotest.(check int) "a fourth segment once the spares are taken" (4 * 3)
    (Soa.allocated () - a0);
  Soa.clear a;
  Soa.clear b

(* Levels spanning several segments: block 4096 and breadth-first-only
   runs, where single levels hold thousands of rows.  Compiled and
   blocked agree on every field, single-context and over 2 domains, and
   the counts match the engine's. *)
let check_multi_segment_levels () =
  let ctx = Lazy.force quick_ctx in
  List.iter
    (fun name ->
      let source, roots = source_of name in
      let entry = Vc_bench.Registry.find name in
      List.iter
        (fun (strategy, sstrategy, block) ->
          let reference =
            match
              Vc_exp.Sweep.exec ctx
                { (Vc_exp.Sweep.point entry) with Vc_exp.Sweep.strategy = sstrategy; block }
            with
            | Vc_exp.Sweep.Report (r, _) -> r
            | Vc_exp.Sweep.Wall _ -> Alcotest.fail "engine point ran a backend"
          in
          let sink, levels = Telemetry.level_sink () in
          let widest = ref 0 in
          List.iter
            (fun domains ->
              let opts = { Backend.default_opts with strategy; domains } in
              let bc =
                Backend.run
                  ~opts:{ opts with telemetry = Some (Telemetry.with_sinks [ sink ]) }
                  Backend.compiled source ~roots
              in
              List.iter
                (fun (st : Telemetry.stamped) ->
                  match st.Telemetry.ev with
                  | Telemetry.Level { size; _ } -> widest := max !widest size
                  | _ -> ())
                (levels ());
              let bi = Backend.run ~opts Backend.interp source ~roots in
              let where =
                Printf.sprintf "%s [%s, domains %s]" name
                  (Policy.name strategy)
                  (match domains with None -> "none" | Some n -> string_of_int n)
              in
              if scrub bc <> scrub bi then
                Alcotest.failf "compiled differs from blocked on %s" where;
              if
                (not reference.Report.oom)
                && (sorted bc.Backend.reducers <> sorted reference.Report.reducers
                   || bc.Backend.tasks <> reference.Report.tasks
                   || bc.Backend.base_tasks <> reference.Report.base_tasks)
              then Alcotest.failf "%s diverges from the engine" where)
            [ None; Some 2 ];
          if !widest <= 2 * Codegen.Soa.seg_rows then
            Alcotest.failf "%s [%s]: widest level %d spans fewer than three segments"
              name (Policy.name strategy) !widest)
        [
          (Policy.Hybrid { max_block = 4096; reexpand = true }, Vc_exp.Sweep.Reexp, 4096);
          (Policy.Bfs_only, Vc_exp.Sweep.Bfs, 256);
        ])
    [ "fib"; "nqueens" ]

(* Level storage follows the live frontier.  At the widest point of a
   full-scale nqueens run at block 4096 the live levels hold 69,708
   three-field frames (209,124 words); a cold run (the level store
   empty), level storage and everything else, must allocate at most 1.5x
   that on the major heap.  Doubling columns that are copied and dropped
   as a level grows allocated about 957K words here. *)
let check_level_storage_bound () =
  with_empty_store @@ fun () ->
  let full = Vc_exp.Sweep.create ~quick:false ~cache_dir:None () in
  let source, roots =
    Vc_exp.Sweep.backend_source full (Vc_bench.Registry.find "nqueens")
  in
  let opts =
    {
      Backend.default_opts with
      strategy = Policy.Hybrid { max_block = 4096; reexpand = true };
    }
  in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (Backend.run ~opts Backend.compiled source ~roots : Backend.result);
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  let bound = 1.5 *. 209_124.0 in
  if words > bound then
    Alcotest.failf "nqueens at block 4096 allocated %.0f major words (bound %.0f)"
      words bound

(* The level store is process-wide: a full-scale nqueens run at block
   4096 right after a first one takes every column from the store, so
   the second run allocates no level storage.  With a store per run it
   allocated about 212K major words here. *)
let check_steady_state () =
  let full = Vc_exp.Sweep.create ~quick:false ~cache_dir:None () in
  let source, roots =
    Vc_exp.Sweep.backend_source full (Vc_bench.Registry.find "nqueens")
  in
  let opts =
    {
      Backend.default_opts with
      strategy = Policy.Hybrid { max_block = 4096; reexpand = true };
    }
  in
  let first = Backend.run ~opts Backend.compiled source ~roots in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let second = Backend.run ~opts Backend.compiled source ~roots in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  if scrub second <> scrub first then Alcotest.fail "the second run differs";
  if words > 10_000.0 then
    Alcotest.failf "the second nqueens run allocated %.0f major words (bound 10000)"
      words

(* Columns come back from the store holding another level's rows, from
   programs of other arities.  Fill the store with poisoned columns, then
   interleave fib (1 field), nqueens (3) and binomial (2) at block 4096:
   every run must equal the same program's first run, on all six fields. *)
let check_stale_columns () =
  let poison = Soa.make_buf ~nfields:1 in
  for _ = 1 to Soa.store_cap * Soa.seg_rows do
    Soa.push poison [| min_int |]
  done;
  Soa.clear poison;
  let opts =
    {
      Backend.default_opts with
      strategy = Policy.Hybrid { max_block = 4096; reexpand = true };
    }
  in
  let programs = [ "fib"; "nqueens"; "binomial" ] in
  List.iter
    (fun backend ->
      let run name =
        let source, roots = source_of name in
        scrub (Backend.run ~opts backend source ~roots)
      in
      let first = List.map (fun name -> (name, run name)) programs in
      List.iter
        (fun name ->
          if run name <> List.assoc name first then
            Alcotest.failf "%s on %s differs after interleaving"
              name backend.Backend.name)
        [ "binomial"; "fib"; "nqueens"; "fib"; "binomial"; "nqueens"; "fib" ])
    [ Backend.compiled; Backend.interp ]

(* Two domains run compiled jobs at once over the one store: both results
   equal the serial one, and the store stays within its cap. *)
let check_store_concurrency () =
  let source, roots = source_of "nqueens" in
  let serial = scrub (Backend.run Backend.compiled source ~roots) in
  let job () =
    List.init 4 (fun _ -> scrub (Backend.run Backend.compiled source ~roots))
  in
  let a = Domain.spawn job and b = Domain.spawn job in
  let results = Domain.join a @ Domain.join b in
  List.iteri
    (fun i r -> if r <> serial then Alcotest.failf "concurrent run %d differs" i)
    results;
  if Soa.stored () > Soa.store_cap then
    Alcotest.failf "the store holds %d columns (cap %d)" (Soa.stored ())
      Soa.store_cap

(* A breadth-first run of full-scale nqueens has a level of 222,720
   three-field frames, more columns than the store keeps: after the run
   the store holds at most its cap, and the rest is left to the GC. *)
let check_store_cap () =
  let full = Vc_exp.Sweep.create ~quick:false ~cache_dir:None () in
  let source, roots =
    Vc_exp.Sweep.backend_source full (Vc_bench.Registry.find "nqueens")
  in
  let sink, levels = Telemetry.level_sink () in
  let opts =
    {
      Backend.default_opts with
      strategy = Policy.Bfs_only;
      telemetry = Some (Telemetry.with_sinks [ sink ]);
    }
  in
  ignore (Backend.run ~opts Backend.compiled source ~roots : Backend.result);
  let widest =
    List.fold_left
      (fun acc (st : Telemetry.stamped) ->
        match st.Telemetry.ev with
        | Telemetry.Level { size; _ } -> max acc size
        | _ -> acc)
      0 (levels ())
  in
  let columns = 3 * ((widest + Soa.seg_rows - 1) / Soa.seg_rows) in
  if columns <= Soa.store_cap then
    Alcotest.failf "widest level %d needs only %d columns (cap %d)" widest
      columns Soa.store_cap;
  if Soa.stored () > Soa.store_cap then
    Alcotest.failf "the store holds %d columns (cap %d)" (Soa.stored ())
      Soa.store_cap

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
          Alcotest.test_case "frontier expansion honours the wall deadline"
            `Quick check_expansion_budgets;
          Alcotest.test_case "frontier expansion trips and contains faults"
            `Quick check_expansion_faults;
          Alcotest.test_case "multi-root frontier sums per-root results"
            `Quick check_multi_root;
          Alcotest.test_case "malformed root arity is rejected alike"
            `Quick check_root_arity;
          Alcotest.test_case "engine and backends emit one level stream"
            `Quick check_level_streams;
          Alcotest.test_case "segmented level keeps rows across segments"
            `Quick check_soa_segments;
          Alcotest.test_case "cleared level's segments are reused" `Quick
            check_soa_reuse;
          Alcotest.test_case "multi-segment levels agree on every field"
            `Quick check_multi_segment_levels;
          Alcotest.test_case "level storage follows the live frontier" `Quick
            check_level_storage_bound;
          Alcotest.test_case "a steady-state run allocates no level storage"
            `Quick check_steady_state;
          Alcotest.test_case "stale store columns never leak into results"
            `Quick check_stale_columns;
          Alcotest.test_case "two domains share the level store" `Quick
            check_store_concurrency;
          Alcotest.test_case "the level store keeps at most its cap" `Quick
            check_store_cap;
        ] );
    ]
