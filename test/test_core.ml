(* Tests for the core library: blocks and schemas, the Fig. 7 rewrite, the
   blocked interpreter, the DSL->Spec compiler, the measured executors
   (sequential, strawman, breadth-first, blocked, re-expansion), and the
   analyses built on them. *)

open Vc_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let e5 = Vc_mem.Machine.xeon_e5
let phi = Vc_mem.Machine.xeon_phi

let fib_src =
  "reducer sum result;\n\
   def fib(n) =\n\
  \  if n < 2 then { reduce(result, n); }\n\
  \  else { spawn fib(n - 1); spawn fib(n - 2); }\n"

let fib_program = Vc_lang.Parser.parse_string fib_src

(* ------------------------------------------------------------------ *)
(* Schema / Addr / Block                                               *)

let test_schema () =
  let s = Schema.create ~lane_kind:Vc_simd.Lane.I8 [ "a"; "b"; "c" ] in
  check_int "fields" 3 (Schema.num_fields s);
  check_int "index" 1 (Schema.field_index s "b");
  Alcotest.check_raises "unknown field" Not_found (fun () ->
      ignore (Schema.field_index s "z"));
  check_int "elem bytes e5" 1 (Schema.elem_bytes s ~isa:Vc_simd.Isa.sse42);
  (* the Phi widens chars to ints *)
  check_int "elem bytes phi" 4 (Schema.elem_bytes s ~isa:Vc_simd.Isa.avx512);
  check_int "frame bytes" 12 (Schema.frame_bytes s ~isa:Vc_simd.Isa.avx512);
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Schema.create: duplicate field \"a\"") (fun () ->
      ignore (Schema.create ~lane_kind:Vc_simd.Lane.I8 [ "a"; "a" ]))

let test_addr () =
  let a = Addr.create () in
  let r1 = Addr.alloc a ~bytes:100 in
  let r2 = Addr.alloc a ~bytes:100 in
  check_bool "disjoint" true (r2 >= r1 + 100);
  check_int "aligned" 0 (r1 mod 64);
  check_int "aligned 2" 0 (r2 mod 64);
  check_int "total" 200 (Addr.allocated_bytes a)

let test_block () =
  let addr = Addr.create () in
  let s = Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "x"; "y" ] in
  let b = Block.create addr ~schema:s ~isa:Vc_simd.Isa.sse42 ~capacity:4 in
  check_int "empty" 0 (Block.size b);
  Block.push b [| 1; 2 |];
  Block.push b [| 3; 4 |];
  check_int "size" 2 (Block.size b);
  check_int "get" 3 (Block.get b ~field:0 ~row:1);
  Block.set b ~field:1 ~row:0 9;
  check_int "set" 9 (Block.get b ~field:1 ~row:0);
  (* SoA addressing: field columns are contiguous *)
  let a00 = Block.field_addr b ~field:0 ~row:0 in
  let a01 = Block.field_addr b ~field:0 ~row:1 in
  let a10 = Block.field_addr b ~field:1 ~row:0 in
  check_int "row stride = elem" 4 (a01 - a00);
  check_int "field stride = capacity*elem" 16 (a10 - a00);
  Block.clear b;
  check_int "cleared" 0 (Block.size b)

let test_block_growth () =
  let addr = Addr.create () in
  let s = Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "x" ] in
  let b = Block.create addr ~schema:s ~isa:Vc_simd.Isa.sse42 ~capacity:2 in
  Block.push b [| 1 |];
  Block.push b [| 2 |];
  Alcotest.check_raises "push full"
    (Invalid_argument "Block.push: block full (capacity 2)") (fun () ->
      Block.push b [| 3 |]);
  let b2 = Block.ensure_room b addr ~extra:3 in
  check_int "contents preserved" 2 (Block.get b2 ~field:0 ~row:1);
  check_bool "capacity grew" true (Block.capacity b2 >= 5);
  check_bool "same block when it fits" true (Block.ensure_room b2 addr ~extra:1 == b2)

let test_block_copy_row () =
  let addr = Addr.create () in
  let s = Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "x"; "y" ] in
  let a = Block.create addr ~schema:s ~isa:Vc_simd.Isa.sse42 ~capacity:2 in
  let b = Block.create addr ~schema:s ~isa:Vc_simd.Isa.sse42 ~capacity:2 in
  Block.push a [| 7; 8 |];
  Block.copy_row ~src:a ~src_row:0 ~dst:b;
  check_int "copied" 8 (Block.get b ~field:1 ~row:0)

let test_soa_roundtrip () =
  let vm = Vc_simd.Vm.create Vc_simd.Isa.sse42 in
  let addr = Addr.create () in
  let s = Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "x"; "y" ] in
  let frames = Array.init 10 (fun i -> [| i; i * i |]) in
  let blk =
    Soa.aos_to_soa ~vm ~addr ~schema:s ~isa:Vc_simd.Isa.sse42 ~aos_base:0x100000 ~frames ()
  in
  check_int "size" 10 (Block.size blk);
  check_int "field value" 49 (Block.get blk ~field:1 ~row:7);
  check_bool "gathers charged" true ((Vc_simd.Vm.stats vm).Vc_simd.Stats.gathers > 0);
  let back = Soa.soa_to_aos ~vm ~aos_base:0x100000 blk in
  check_bool "roundtrip" true (back = frames);
  check_bool "scatters charged" true ((Vc_simd.Vm.stats vm).Vc_simd.Stats.scatters > 0)

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy () =
  (match Policy.hybrid_for ~target_space:1024 ~num_spawns:2 ~reexpand:true with
  | Policy.Hybrid { max_block = 512; reexpand = true } -> ()
  | _ -> Alcotest.fail "threshold rule");
  Alcotest.(check string) "names" "bfs" (Policy.name Policy.Bfs_only);
  Alcotest.(check string) "noreexp" "noreexp"
    (Policy.name (Policy.Hybrid { max_block = 4; reexpand = false }));
  Alcotest.(check string) "reexp" "reexp"
    (Policy.name (Policy.Hybrid { max_block = 4; reexpand = true }));
  Alcotest.check_raises "bad target" (Invalid_argument "Policy.hybrid_for: target_space < 1")
    (fun () -> ignore (Policy.hybrid_for ~target_space:0 ~num_spawns:2 ~reexpand:false))

(* ------------------------------------------------------------------ *)
(* Transform (Fig. 7)                                                  *)

let test_rewrite_rules () =
  let open Vc_lang.Ast in
  check_bool "return -> continue" true
    (Transform.rewrite_stmt ~flavor:Blocked_ast.Bfs Return = Blocked_ast.Continue);
  let spawn = Spawn { spawn_id = 1; spawn_args = [ Int 5 ] } in
  (match Transform.rewrite_stmt ~flavor:Blocked_ast.Bfs spawn with
  | Blocked_ast.NextAdd [ Int 5 ] -> ()
  | _ -> Alcotest.fail "bfs spawn -> next.add");
  (match Transform.rewrite_stmt ~flavor:Blocked_ast.Blocked spawn with
  | Blocked_ast.NextsAdd (1, [ Int 5 ]) -> ()
  | _ -> Alcotest.fail "blocked spawn -> nexts[id].add");
  (* structural rewriting threads through composite statements *)
  match
    Transform.rewrite_stmt ~flavor:Blocked_ast.Blocked
      (Seq (If (Bool true, spawn, Return), While (Bool false, Skip)))
  with
  | Blocked_ast.BSeq
      ( Blocked_ast.BIf (_, Blocked_ast.NextsAdd (1, _), Blocked_ast.Continue),
        Blocked_ast.BWhile (_, Blocked_ast.BSkip) ) ->
      ()
  | _ -> Alcotest.fail "structural rewrite"

let test_transform_fib () =
  let t = Transform.transform fib_program in
  Alcotest.(check (list string)) "thread struct" [ "n" ] t.Blocked_ast.thread_fields;
  check_int "spawn count" 2 t.Blocked_ast.num_spawns;
  Alcotest.(check string) "bfs name" "fib_bfs" t.Blocked_ast.bfs_method.Blocked_ast.bname;
  Alcotest.(check string) "blocked name" "fib_blocked"
    t.Blocked_ast.blocked_method.Blocked_ast.bname;
  let printed = Blocked_ast.to_string t in
  List.iter
    (fun fragment ->
      check_bool (Printf.sprintf "printed code contains %S" fragment) true
        (let nl = String.length fragment and hl = String.length printed in
         let rec go i = i + nl <= hl && (String.sub printed i nl = fragment || go (i + 1)) in
         go 0))
    [
      "struct Thread { int n };";
      "next.add(new Thread(n - 1));";
      "nexts[1].add(new Thread(n - 2));";
      "if (next.size() < max_block_size) fib_bfs(next);";
      "if (next.size() > reexpansion_threshold) fib_blocked(next);";
      "fib_bfs(init);";
    ]

let test_transform_rejects_invalid () =
  let bad = Vc_lang.Parser.parse_string "def f(a) = if a < 1 then { reduce(r, 1); } else { spawn f(a - 1); }" in
  try
    ignore (Transform.transform bad);
    Alcotest.fail "expected Invalid"
  with Vc_lang.Validate.Invalid _ -> ()

(* ------------------------------------------------------------------ *)
(* Blocked interpreter: executes the transformed code                  *)

let interp_reducers p args =
  (Vc_lang.Interp.run_validated p args).Vc_lang.Interp.reducers

let strategies =
  [
    Policy.Bfs_only;
    Policy.Hybrid { max_block = 1; reexpand = false };
    Policy.Hybrid { max_block = 1; reexpand = true };
    Policy.Hybrid { max_block = 8; reexpand = false };
    Policy.Hybrid { max_block = 8; reexpand = true };
    Policy.Hybrid { max_block = 1024; reexpand = true };
  ]

(* The transformed program under the interp backend (the Blocked_interp
   stepper driven by Backend's scheduler), from one root frame. *)
let interp_run ?(opts = Backend.default_opts) t args =
  Backend.run ~opts Backend.interp (Backend.Ir t) ~roots:[ Array.of_list args ]

let test_blocked_interp_fib () =
  let t = Transform.transform fib_program in
  let expected = interp_reducers fib_program [ 15 ] in
  List.iter
    (fun strategy ->
      let r = interp_run ~opts:{ Backend.default_opts with strategy } t [ 15 ] in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "reducers under %s" (Policy.name strategy))
        expected r.Backend.reducers;
      check_int "tasks" ((2 * 987) - 1) r.Backend.tasks)
    strategies

let test_blocked_interp_switches () =
  let t = Transform.transform fib_program in
  let r =
    interp_run
      ~opts:
        { Backend.default_opts with strategy = Policy.Hybrid { max_block = 8; reexpand = true } }
      t [ 12 ]
  in
  check_bool "switched to blocked" true (r.Backend.switches > 0);
  check_bool "re-expanded" true (r.Backend.reexpansions > 0);
  let r2 = interp_run ~opts:{ Backend.default_opts with strategy = Policy.Bfs_only } t [ 12 ] in
  check_int "bfs never switches" 0 r2.Backend.switches

let test_blocked_interp_task_limit () =
  let t = Transform.transform fib_program in
  match interp_run ~opts:{ Backend.default_opts with max_tasks = 100 } t [ 20 ] with
  | _ -> Alcotest.fail "task limit did not fire"
  | exception Vc_error.Error e ->
      (match e.Vc_error.kind with
      | Vc_error.Budget_exceeded { resource = Vc_error.Task_budget; limit; _ } ->
          Alcotest.(check (float 0.0)) "limit" 100.0 limit
      | _ -> Alcotest.failf "not a task-budget error: %s" (Vc_error.to_string e));
      check_int "exit code 2" 2 (Vc_error.exit_code e)

let blocked_interp_equiv_random =
  QCheck.Test.make ~name:"transformed program = sequential semantics (random)"
    ~count:120 Qgen.arbitrary_program_and_args (fun (p, args) ->
      let expected = interp_reducers p args in
      let t = Transform.transform p in
      List.for_all
        (fun strategy ->
          (interp_run ~opts:{ Backend.default_opts with strategy } t args).Backend.reducers
          = expected)
        strategies)

(* ------------------------------------------------------------------ *)
(* Compile: DSL -> Spec -> Engine                                      *)

let test_compile_fib_spec () =
  let spec = Compile.spec_of_program ~lane_kind:Vc_simd.Lane.I8 fib_program ~args:[ 16 ] in
  (match Spec.validate spec with Ok () -> () | Error es -> Alcotest.failf "%s" (String.concat "; " es));
  let expected = interp_reducers fib_program [ 16 ] in
  List.iter
    (fun machine ->
      let seq = Seq_exec.run ~spec ~machine () in
      Alcotest.(check (list (pair string int))) "seq reducers" expected seq.Report.reducers;
      List.iter
        (fun strategy ->
          let r = Engine.run ~spec ~machine ~strategy () in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "engine reducers (%s/%s)" machine.Vc_mem.Machine.name
               (Policy.name strategy))
            expected r.Report.reducers;
          check_int "same task count" seq.Report.tasks r.Report.tasks;
          check_int "same depth" seq.Report.max_depth r.Report.max_depth)
        strategies)
    [ e5; phi ]

let compile_equiv_random =
  QCheck.Test.make ~name:"compiled spec = sequential semantics (random)" ~count:60
    Qgen.arbitrary_program_and_args (fun (p, args) ->
      let expected = interp_reducers p args in
      let spec = Compile.spec_of_program p ~args in
      let seq = Seq_exec.run ~spec ~machine:e5 () in
      let eng =
        Engine.run ~spec ~machine:e5
          ~strategy:(Policy.Hybrid { max_block = 4; reexpand = true })
          ()
      in
      seq.Report.reducers = expected && eng.Report.reducers = expected
      && seq.Report.tasks = eng.Report.tasks)

(* ------------------------------------------------------------------ *)
(* Executors on native specs                                           *)

let small_specs () =
  [
    Vc_bench.Fib.spec { Vc_bench.Fib.n = 14 };
    Vc_bench.Binomial.spec { Vc_bench.Binomial.n = 12; k = 5 };
    Vc_bench.Parentheses.spec { Vc_bench.Parentheses.pairs = 6 };
    Vc_bench.Knapsack.spec { Vc_bench.Knapsack.n = 10; capacity_ratio = 0.5; seed = 3 };
    Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 7 };
    Vc_bench.Graphcol.spec
      { Vc_bench.Graphcol.vertices = 10; edges = 14; colors = 3; seed = 5 };
    Vc_bench.Uts.spec { Vc_bench.Uts.b0 = 20; m = 3; q = 0.3; seed = 11 };
    Vc_bench.Minmax.spec { Vc_bench.Minmax.size = 3 };
  ]

let test_engine_matches_seq_all_benchmarks () =
  List.iter
    (fun spec ->
      let seq = Seq_exec.run ~spec ~machine:e5 () in
      List.iter
        (fun machine ->
          List.iter
            (fun strategy ->
              let r = Engine.run ~spec ~machine ~strategy () in
              let label what =
                Printf.sprintf "%s %s/%s/%s" what spec.Spec.name
                  machine.Vc_mem.Machine.name (Policy.name strategy)
              in
              Alcotest.(check (list (pair string int)))
                (label "reducers") seq.Report.reducers r.Report.reducers;
              check_int (label "tasks") seq.Report.tasks r.Report.tasks;
              check_int (label "base tasks") seq.Report.base_tasks r.Report.base_tasks;
              Alcotest.(check (array (pair int int)))
                (label "per-level distribution") seq.Report.levels r.Report.levels)
            strategies)
        [ e5; phi ])
    (small_specs ())

let test_engine_compaction_engines_agree () =
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 7 } in
  let strategy = Policy.Hybrid { max_block = 64; reexpand = true } in
  let base = Engine.run ~spec ~machine:e5 ~strategy () in
  List.iter
    (fun compact ->
      let r = Engine.run ~compact ~spec ~machine:e5 ~strategy () in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "reducers with %s" (Vc_simd.Compact.name compact))
        base.Report.reducers r.Report.reducers)
    [
      Vc_simd.Compact.Sequential;
      Vc_simd.Compact.Full_table;
      Vc_simd.Compact.Factorized { sub_width = 4 };
    ]

let test_engine_oom () =
  (* fib(18)'s widest level exceeds 512 threads, so pure breadth-first
     expansion overruns this limit; the hybrid keeps O(max_block * depth *
     e) live threads and survives it. *)
  let tiny = { e5 with Vc_mem.Machine.name = "tiny"; max_live_threads = 512 } in
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 18 } in
  let r = Engine.run ~spec ~machine:tiny ~strategy:Policy.Bfs_only () in
  check_bool "bfs-only OOMs" true r.Report.oom;
  let r2 =
    Engine.run ~spec ~machine:tiny
      ~strategy:(Policy.Hybrid { max_block = 8; reexpand = true })
      ()
  in
  check_bool "hybrid survives" false r2.Report.oom;
  check_bool "space bounded" true (r2.Report.space_peak <= 512)

let test_engine_utilization_grows_with_block () =
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 8 } in
  let util max_block =
    let r =
      Engine.run ~spec ~machine:e5
        ~strategy:(Policy.Hybrid { max_block; reexpand = false })
        ()
    in
    r.Report.utilization
  in
  let u4 = util 4 and u64 = util 64 and u1024 = util 1024 in
  check_bool "monotone 4 -> 64" true (u4 <= u64 +. 1e-9);
  check_bool "monotone 64 -> 1024" true (u64 <= u1024 +. 1e-9)

let test_engine_reexpansion_raises_utilization () =
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 8 } in
  let run reexpand =
    Engine.run ~spec ~machine:e5 ~strategy:(Policy.Hybrid { max_block = 64; reexpand }) ()
  in
  let off = run false and on = run true in
  check_bool "reexpansion helps utilization" true
    (on.Report.utilization > off.Report.utilization);
  check_bool "events recorded" true (Array.length on.Report.reexpansions > 0);
  check_int "no events when off" 0 (Array.length off.Report.reexpansions)

let test_seq_exec_task_limit () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 20 } in
  match Seq_exec.run ~max_tasks:50 ~spec ~machine:e5 () with
  | _ -> Alcotest.fail "task budget should trip"
  | exception Vc_error.Error e -> (
      check_int "exit code 2" 2 (Vc_error.exit_code e);
      match e.Vc_error.kind with
      | Vc_error.Budget_exceeded { resource = Vc_error.Task_budget; limit; actual }
        ->
          check_bool "limit recorded" true (limit = 50.0);
          check_bool "count passed the limit" true (actual > limit)
      | _ -> Alcotest.failf "wrong error kind: %s" (Vc_error.to_string e))

let test_strawman () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 14 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  let straw = Strawman.run ~spec ~machine:e5 () in
  Alcotest.(check (list (pair string int))) "reducers" seq.Report.reducers straw.Report.reducers;
  check_int "tasks" seq.Report.tasks straw.Report.tasks;
  let good =
    Engine.run ~spec ~machine:e5
      ~strategy:(Policy.Hybrid { max_block = 256; reexpand = true })
      ()
  in
  (* the paper's §2 argument: divergent lane-per-thread execution loses to
     the blocked transformation *)
  check_bool "strawman slower than blocked" true (straw.Report.cycles > good.Report.cycles)

let test_engine_trace () =
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 7 } in
  let sink, levels = Telemetry.level_sink () in
  let r =
    Engine.run ~telemetry:(Telemetry.with_sinks [ sink ]) ~spec ~machine:e5
      ~strategy:(Policy.Hybrid { max_block = 32; reexpand = true })
      ()
  in
  let evs =
    List.map
      (fun (st : Telemetry.stamped) ->
        match st.Telemetry.ev with
        | Telemetry.Level { phase; depth; size; base } -> (phase, depth, size, base)
        | _ -> Alcotest.fail "level sink kept a non-Level event")
      (levels ())
  in
  check_bool "events recorded" true (evs <> []);
  check_bool "starts with the root bfs level" true
    (match evs with (Telemetry.Bfs, 0, 1, _) :: _ -> true | _ -> false);
  (* every engine task appears in exactly one traced level *)
  check_int "sizes sum to tasks" r.Report.tasks
    (List.fold_left (fun acc (_, _, size, _) -> acc + size) 0 evs);
  check_int "bases sum to base tasks" r.Report.base_tasks
    (List.fold_left (fun acc (_, _, _, base) -> acc + base) 0 evs);
  (* re-expansion means both phases appear *)
  let has p = List.exists (fun (q, _, _, _) -> q = p) evs in
  check_bool "both phases present" true (has Telemetry.Bfs && has Telemetry.Blocked);
  let printed = Format.asprintf "%a" (Telemetry.pp_levels ~limit:5) (levels ()) in
  check_bool "pp summarizes" true (String.length printed > 0)

let test_engine_warm_cache () =
  let spec = Vc_bench.Minmax.spec { Vc_bench.Minmax.size = 3 } in
  let strategy = Policy.Hybrid { max_block = 256; reexpand = true } in
  let seq = Seq_exec.run ~spec ~machine:phi () in
  let cold = Engine.run ~spec ~machine:phi ~strategy () in
  let warm = Engine.run ~warm:true ~spec ~machine:phi ~strategy () in
  Alcotest.(check (list (pair string int))) "warm results exact"
    seq.Report.reducers warm.Report.reducers;
  check_int "warm counts tasks once" cold.Report.tasks warm.Report.tasks;
  check_bool "warm is faster" true (warm.Report.cycles < cold.Report.cycles);
  Alcotest.(check string) "strategy tagged" "reexp+warm" warm.Report.strategy

(* Run [spec] cold in a context of its own and return its report with the
   context, so a test can read the context's host-column store. *)
let engine_ctx_run ?(prepare = ignore) ~spec ~machine ~strategy () =
  let ctx = Engine.make_ctx ~spec ~machine ~strategy () in
  prepare ctx;
  Engine.execute_frames ctx ~roots:spec.Spec.roots ~depth:0;
  (ctx, Engine.report_of ctx ~strategy:(Policy.name strategy) ~wall_seconds:0.0)

(* Pooled blocks take host columns only for the rows they write and give
   them back when their frames retire, so a cold run's host words follow
   the modeled space peak.  Capacity-sized columns held 1,624,059 words
   for graphcol (peak 4,224 frames x 31 fields) and 948,896 for nqueens. *)
let test_engine_storage_follows_frontier () =
  let strategy = Policy.Hybrid { max_block = 256; reexpand = true } in
  List.iter
    (fun name ->
      let spec = (Vc_bench.Registry.find name).Vc_bench.Registry.spec () in
      let ctx, r = engine_ctx_run ~spec ~machine:e5 ~strategy () in
      let words = Block.Store.allocated (Engine.store ctx) in
      let bound = 2 * r.Report.space_peak * Schema.num_fields spec.Spec.schema in
      check_bool
        (Printf.sprintf "%s: %d host words <= %d" name words bound)
        true (words <= bound))
    [ "graphcol"; "nqueens" ]

(* Host columns come back holding other blocks' rows.  Poisoning every
   column the store holds or takes back must not move any report: no row
   at or above a block's size, and no released block, is ever read. *)
let test_engine_stale_columns () =
  let quick = Vc_exp.Sweep.create ~quick:true ~cache_dir:None () in
  let strategy = Policy.Hybrid { max_block = 16; reexpand = true } in
  List.iter
    (fun entry ->
      let spec = Vc_exp.Sweep.spec_of quick entry in
      List.iter
        (fun machine ->
          let fresh = Engine.run ~spec ~machine ~strategy () in
          let _, poisoned =
            engine_ctx_run
              ~prepare:(fun ctx -> Block.Store.poison (Engine.store ctx) 0x7eadbeef)
              ~spec ~machine ~strategy ()
          in
          check_bool
            (Printf.sprintf "%s on %s" spec.Spec.name machine.Vc_mem.Machine.name)
            true (Report.equal fresh poisoned))
        [ e5; phi ])
    Vc_bench.Registry.all

(* The native callbacks of every built-in allocate nothing per task: no
   child frame array, board copy or per-call closure.  Called directly
   over the first levels of each quick tree (unpooled blocks sized up
   front, so a push never grows one), they allocate no word at all, once
   the cost of one [Gc.minor_words] call is subtracted.
   Through the engine, what is left per task is the engine's own
   bookkeeping: at most 22 words at this scale (graphcol's 1,174 tasks
   carry the most per-run overhead), where a board array and line
   closures per check cost minmax 236.  Every built-in is checked before
   the failures are reported together. *)
let test_engine_callbacks_allocate_nothing () =
  let quick = Vc_exp.Sweep.create ~quick:true ~cache_dir:None () in
  let isa = e5.Vc_mem.Machine.isa in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt in
  List.iter
    (fun entry ->
      let spec = Vc_exp.Sweep.spec_of quick entry in
      let name = spec.Spec.name in
      let addr = Addr.create () in
      let reducers = Spec.make_reducers spec in
      let block capacity = Block.create addr ~schema:spec.Spec.schema ~isa ~capacity in
      let src = ref (block (List.length spec.Spec.roots)) in
      List.iter (Block.push !src) spec.Spec.roots;
      let calls = ref 0 and words = ref 0.0 in
      while Block.size !src > 0 && !calls < 20_000 do
        let cur = !src in
        let dst = block (Block.size cur * spec.Spec.num_spawns) in
        let m0 = Gc.minor_words () in
        let m1 = Gc.minor_words () in
        for row = 0 to Block.size cur - 1 do
          if spec.Spec.is_base cur row then spec.Spec.exec_base reducers cur row
          else
            for site = 0 to spec.Spec.num_spawns - 1 do
              ignore (spec.Spec.spawn cur row ~site ~dst)
            done
        done;
        let m2 = Gc.minor_words () in
        calls := !calls + Block.size cur;
        words := !words +. (m2 -. m1 -. (m1 -. m0));
        src := dst
      done;
      if !words <> 0.0 then
        fail "%s: callbacks allocated %.0f words over %d frames" name !words !calls;
      let strategy = Policy.Hybrid { max_block = 256; reexpand = true } in
      let m0 = Gc.minor_words () in
      let r = Engine.run ~spec ~machine:e5 ~strategy () in
      let per_task = (Gc.minor_words () -. m0) /. float_of_int r.Report.tasks in
      if per_task > 32.0 then fail "%s: engine run took %.2f minor words per task > 32" name per_task)
    Vc_bench.Registry.all;
  if !failures <> [] then Alcotest.fail (String.concat "; " (List.rev !failures))

let test_engine_cutoff () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 20 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  let strategy = Policy.Hybrid { max_block = 256; reexpand = true } in
  let vec = Engine.run ~spec ~machine:e5 ~strategy () in
  let cut = Engine.run ~cutoff:64 ~spec ~machine:e5 ~strategy () in
  Alcotest.(check (list (pair string int))) "results unchanged"
    seq.Report.reducers cut.Report.reducers;
  check_int "all tasks executed" seq.Report.tasks cut.Report.tasks;
  check_bool "cut-off starves lanes" true
    (cut.Report.utilization < vec.Report.utilization);
  check_bool "cut-off costs cycles" true (cut.Report.cycles > vec.Report.cycles)

(* ------------------------------------------------------------------ *)
(* Hybrid multicore x SIMD scheduler (paper Sec. 8 future work)       *)

let hybrid = Policy.Hybrid { max_block = 4096; reexpand = true }

let test_multicore_exact_results () =
  List.iter
    (fun spec ->
      let seq = Seq_exec.run ~spec ~machine:e5 () in
      List.iter
        (fun domains ->
          let d =
            Domain_sched.run ~spec ~machine:e5
              ~strategy:(Policy.Hybrid { max_block = 64; reexpand = true })
              ~domains ()
          in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s reducers @ %d domains" spec.Spec.name domains)
            seq.Report.reducers d.Domain_sched.report.Report.reducers)
        [ 1; 3; 8 ])
    [
      Vc_bench.Fib.spec { Vc_bench.Fib.n = 15 };
      Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 7 };
      Vc_bench.Knapsack.spec { Vc_bench.Knapsack.n = 10; capacity_ratio = 0.5; seed = 3 };
    ]

let test_multicore_scales () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 18 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  let run domains = Domain_sched.run ~spec ~machine:e5 ~strategy:hybrid ~domains () in
  let s1 = Domain_sched.speedup ~baseline:seq (run 1)
  and s4 = Domain_sched.speedup ~baseline:seq (run 4) in
  check_bool "more domains help" true (s4 > s1 *. 1.5);
  let d = run 4 in
  check_bool "balance sane" true
    (d.Domain_sched.makespan_cycles /. (d.Domain_sched.work_cycles /. 4.0) >= 0.99);
  check_bool "serial fraction positive" true (d.Domain_sched.expansion_cycles > 0.0);
  check_int "all chunks placed" d.Domain_sched.chunks
    (min Domain_sched.default_chunks d.Domain_sched.frontier)

let test_ws_sim_single_worker () =
  let jobs = List.init 5 (fun id -> { Ws_sim.id; cost = float_of_int (id + 1) }) in
  let s = Ws_sim.simulate ~workers:1 jobs in
  Alcotest.(check (float 1e-9)) "makespan = total" 15.0 s.Ws_sim.makespan;
  check_int "no steals" 0 s.Ws_sim.steals;
  check_int "all jobs on worker 0" 5 s.Ws_sim.jobs_run.(0)

let test_ws_sim_balances () =
  (* round-robin dealing puts every heavy job on worker 0's deque: the
     others run dry and must steal to balance *)
  let jobs =
    List.init 64 (fun id -> { Ws_sim.id; cost = (if id mod 4 = 0 then 4000.0 else 500.0) })
  in
  let s = Ws_sim.simulate ~steal_cost:10.0 ~seed:7 ~workers:4 jobs in
  check_bool "steals happened" true (s.Ws_sim.steals > 0);
  check_bool "parallel speedup" true (s.Ws_sim.makespan < 0.5 *. s.Ws_sim.total_work);
  check_bool "lower bound" true
    (s.Ws_sim.makespan >= s.Ws_sim.total_work /. 4.0 -. 1e-9);
  Alcotest.(check (float 1e-9)) "work conserved" s.Ws_sim.total_work
    (Array.fold_left ( +. ) 0.0 s.Ws_sim.busy);
  check_int "jobs conserved" 64 (Array.fold_left ( + ) 0 s.Ws_sim.jobs_run);
  check_bool "utilization in (0,1]" true
    (Ws_sim.utilization s > 0.0 && Ws_sim.utilization s <= 1.0 +. 1e-9)

let test_ws_sim_deterministic () =
  let jobs = List.init 20 (fun id -> { Ws_sim.id; cost = float_of_int (100 + (id * 37 mod 53)) }) in
  let a = Ws_sim.simulate ~seed:5 ~workers:3 jobs in
  let b = Ws_sim.simulate ~seed:5 ~workers:3 jobs in
  check_bool "same seed same result" true (a = b);
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Ws_sim.simulate: workers must be positive") (fun () ->
      ignore (Ws_sim.simulate ~workers:0 jobs))

let ws_sim_bounds =
  QCheck.Test.make ~name:"work-stealing makespan respects scheduling bounds"
    ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 40) (int_range 1 1000)))
    (fun (workers, costs) ->
      let jobs = List.mapi (fun id c -> { Ws_sim.id; cost = float_of_int c }) costs in
      let s = Ws_sim.simulate ~seed:3 ~workers jobs in
      let total = s.Ws_sim.total_work in
      let longest = List.fold_left (fun acc j -> max acc j.Ws_sim.cost) 0.0 jobs in
      s.Ws_sim.makespan >= total /. float_of_int workers -. 1e-6
      && s.Ws_sim.makespan >= longest -. 1e-6
      && Array.fold_left ( +. ) 0.0 s.Ws_sim.busy = total)

let test_multicore_work_stealing_schedule () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 16 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  let d = Domain_sched.run ~spec ~machine:e5 ~strategy:hybrid ~domains:4 () in
  Alcotest.(check (list (pair string int))) "exact results" seq.Report.reducers
    d.Domain_sched.report.Report.reducers;
  check_bool "steals counted" true (d.Domain_sched.modeled_steals > 0);
  check_bool "still parallel" true (Domain_sched.speedup ~baseline:seq d > 1.0)

let test_multicore_errors () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 10 } in
  Alcotest.check_raises "domains >= 1"
    (Invalid_argument "Domain_sched.run: domains must be positive") (fun () ->
      ignore (Domain_sched.run ~spec ~machine:e5 ~strategy:hybrid ~domains:0 ()))

let test_multicore_oom_report () =
  (* running out of modeled memory is a result, not an exception: the
     report is flagged [oom] (figure 17 and A5 print an OOM cell) *)
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 18 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  (* 64 live threads run out in the expansion phase, 256 in the chunks *)
  List.iter
    (fun max_live_threads ->
      let tiny = { e5 with Vc_mem.Machine.name = "tiny"; max_live_threads } in
      let d = Domain_sched.run ~spec ~machine:tiny ~strategy:hybrid ~domains:2 () in
      check_bool (Printf.sprintf "oom report @ %d" max_live_threads) true
        d.Domain_sched.report.Report.oom;
      Alcotest.(check (float 0.0)) "speedup 0" 0.0 (Domain_sched.speedup ~baseline:seq d))
    [ 64; 256 ]

(* The chunked-domains driver's contract: every chunk gets its own hub
   and runs to completion, the chunks' recovery events reach the caller
   in chunk-index order, and the lowest-index chunk's exception wins,
   whatever the domain count. *)
exception Chunk_failed of int

let test_run_chunks_first_error () =
  List.iter
    (fun domains ->
      let seen = ref [] in
      let telemetry =
        Telemetry.with_sinks
          [ Telemetry.callback_sink (fun st -> seen := st.Telemetry.ev :: !seen) ]
      in
      (* chunks run on other domains, and Alcotest's checks print through
         a Format queue that is not domain-safe: record, check after *)
      let frames_seen = Array.make 10 [] in
      let run idx ~telemetry ~faults:_ frames =
        frames_seen.(idx) <- frames;
        Telemetry.emit telemetry
          (Telemetry.Fault { site = "chunk"; detail = string_of_int idx });
        if idx = 3 || idx = 7 then raise (Chunk_failed idx)
      in
      let label = Printf.sprintf "domains %d" domains in
      (match
         Domain_sched.run_chunks ~domains ~chunks:10 ~telemetry ~faults:Fault.none
           (List.init 10 Fun.id) run
       with
      | _ -> Alcotest.failf "%s: chunk errors were dropped" label
      | exception Chunk_failed idx -> check_int (label ^ ": lowest-index error") 3 idx);
      Array.iteri
        (fun idx frames -> check_bool "one frame per chunk" true (frames = [ idx ]))
        frames_seen;
      let faults =
        List.filter_map
          (function
            | Telemetry.Fault { detail; _ } -> Some (int_of_string detail) | _ -> None)
          (List.rev !seen)
      in
      Alcotest.(check (list int)) (label ^ ": faults in chunk order") (List.init 10 Fun.id)
        faults)
    [ 1; 2; 4 ]

(* A tree that dies out during the expansion leaves no frontier: no
   chunks, a zero makespan, and the expansion's numbers are the run's. *)
let test_multicore_empty_frontier () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 5 } in
  let engine = Engine.run ~spec ~machine:e5 ~strategy:hybrid () in
  List.iter
    (fun domains ->
      let d = Domain_sched.run ~spec ~machine:e5 ~strategy:hybrid ~domains () in
      let label what = Printf.sprintf "%s @ %d domains" what domains in
      check_int (label "chunks") 0 d.Domain_sched.chunks;
      check_int (label "frontier") 0 d.Domain_sched.frontier;
      Alcotest.(check (float 0.0)) (label "makespan") 0.0 d.Domain_sched.makespan_cycles;
      Alcotest.(check (float 0.0)) (label "cycles") d.Domain_sched.expansion_cycles
        d.Domain_sched.report.Report.cycles;
      Alcotest.(check (list (pair string int))) (label "reducers")
        engine.Report.reducers d.Domain_sched.report.Report.reducers;
      check_int (label "tasks") engine.Report.tasks d.Domain_sched.report.Report.tasks)
    [ 1; 2; 4 ]

(* A Chrome trace of a domains run holds every event the hub saw: the
   expansion report must not flush (and so finalize) the caller's sink
   before the replayed chunk events and the modeled steals arrive. *)
let test_multicore_chrome_trace_complete () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 16 } in
  let path = Filename.temp_file "vc-domains-trace" ".json" in
  let oc = open_out path in
  let seen = ref 0 and steals = ref 0 in
  let telemetry =
    Telemetry.with_sinks
      [
        Telemetry.chrome_sink oc;
        Telemetry.callback_sink (fun st ->
            incr seen;
            match st.Telemetry.ev with Telemetry.Steal _ -> incr steals | _ -> ());
      ]
  in
  let d =
    Domain_sched.run ~telemetry ~spec ~machine:e5
      ~strategy:(Policy.Hybrid { max_block = 64; reexpand = true })
      ~domains:4 ()
  in
  close_out oc;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check_int "steals reach the hub" d.Domain_sched.modeled_steals !steals;
  check_bool "the run steals" true (!steals > 0);
  match Vc_exp.Jsonx.parse contents with
  | Ok (Vc_exp.Jsonx.List evs) ->
      check_int "every event in the trace" !seen (List.length evs);
      let named n = function
        | Vc_exp.Jsonx.Obj fields -> List.assoc_opt "name" fields = Some (Vc_exp.Jsonx.String n)
        | _ -> false
      in
      check_int "steals in the trace" !steals (List.length (List.filter (named "steal") evs))
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"
  | Error m -> Alcotest.failf "chrome trace unparseable: %s" m

let test_strawman_task_budget () =
  (* exceeding the task limit is a typed [Task_budget] error carrying the
     limit and the count reached, not a [Failure] *)
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 14 } in
  match Strawman.run ~max_tasks:100 ~spec ~machine:e5 () with
  | _ -> Alcotest.fail "task budget should trip"
  | exception Vc_error.Error e -> (
      check_int "exit code 2" 2 (Vc_error.exit_code e);
      match e.Vc_error.kind with
      | Vc_error.Budget_exceeded { resource = Vc_error.Task_budget; limit; actual }
        ->
          check_bool "limit recorded" true (limit = 100.0);
          check_bool "count reached the limit" true (actual >= limit)
      | _ -> Alcotest.failf "wrong error kind: %s" (Vc_error.to_string e))

(* ------------------------------------------------------------------ *)
(* Opportunity analysis                                                *)

let test_opportunity () =
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 8 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  let vec =
    Engine.run ~spec ~machine:e5 ~strategy:(Policy.Hybrid { max_block = 256; reexpand = true }) ()
  in
  let row = Opportunity.analyze ~seq ~vec ~width:16 in
  check_bool "fractions sum to 1" true
    (abs_float (row.Opportunity.seq_vect +. row.Opportunity.seq_nonvect -. 1.0) < 1e-9);
  check_bool "kernel dominates nqueens" true (row.Opportunity.seq_vect > 0.5);
  (* can slightly exceed the vector width: the transformation also trims
     non-kernel instructions (paper, Table 3 discussion) *)
  check_bool "max speedup sensible" true
    (row.Opportunity.max_speedup > 1.0 && row.Opportunity.max_speedup <= 32.0)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let mark m = Telemetry.Mark m

let sample_events =
  [
    Telemetry.Level { phase = Telemetry.Bfs; depth = 0; size = 1; base = 0 };
    Telemetry.Switch { depth = 3; size = 9 };
    Telemetry.Reexpand { depth = 4; size = 2; shrink = 0.5 };
    Telemetry.Compaction { engine = "shuffle"; width = 8; n = 13; passes = 2 };
    Telemetry.Convert { to_soa = true; n = 64; fields = 3 };
    Telemetry.Cache { level = "L1"; depth = 2; accesses = 10; misses = 3 };
    Telemetry.Span_open { frame = "expand" };
    Telemetry.Span_close { frame = "expand" };
    Telemetry.Mark "checkpoint";
  ]

let test_telemetry_ring () =
  let ring = Telemetry.ring ~capacity:4 in
  let tel = Telemetry.with_sinks [ ring ] in
  check_bool "ring enables the hub" true (Telemetry.enabled tel);
  for i = 0 to 5 do
    Telemetry.emit tel (mark (string_of_int i))
  done;
  let evs = Telemetry.ring_events ring in
  check_int "keeps the most recent [capacity]" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest first" [ 2; 3; 4; 5 ]
    (List.map (fun s -> s.Telemetry.seq) evs);
  (match evs with
  | { Telemetry.ev = Telemetry.Mark "2"; _ } :: _ -> ()
  | _ -> Alcotest.fail "window should start at mark 2");
  Telemetry.clear tel;
  check_int "clear empties the ring" 0 (List.length (Telemetry.ring_events ring));
  Telemetry.emit tel (mark "again");
  (match Telemetry.ring_events ring with
  | [ { Telemetry.seq = 0; _ } ] -> ()
  | _ -> Alcotest.fail "clear should reset the sequence counter");
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Telemetry.ring: capacity must be positive") (fun () ->
      ignore (Telemetry.ring ~capacity:0))

let test_telemetry_disabled () =
  let tel = Telemetry.create () in
  check_bool "no sinks = disabled" false (Telemetry.enabled tel);
  Telemetry.emit tel (mark "dropped");
  Telemetry.attach tel Telemetry.null;
  check_bool "null sink keeps it disabled" false (Telemetry.enabled tel);
  check_bool "with_sinks drops null" false
    (Telemetry.enabled (Telemetry.with_sinks [ Telemetry.null ]));
  let ring = Telemetry.ring ~capacity:8 in
  Telemetry.attach tel ring;
  check_bool "real sink enables" true (Telemetry.enabled tel);
  Telemetry.emit tel (mark "kept");
  (* the event emitted while disabled was never stamped: seq starts at 0 *)
  match Telemetry.ring_events ring with
  | [ { Telemetry.seq = 0; ev = Telemetry.Mark "kept"; _ } ] -> ()
  | _ -> Alcotest.fail "disabled emit should be a complete no-op"

let test_telemetry_clock () =
  let ring = Telemetry.ring ~capacity:8 in
  let tel = Telemetry.with_sinks [ ring ] in
  Alcotest.(check (float 0.0)) "default clock is the sequence number" 0.0
    (Telemetry.now tel);
  Telemetry.emit tel (mark "a");
  Alcotest.(check (float 0.0)) "sequence clock advances" 1.0 (Telemetry.now tel);
  let t = ref 100.0 in
  Telemetry.set_clock tel (fun () -> !t);
  t := 250.0;
  Telemetry.emit tel (mark "b");
  Telemetry.emit tel ~ts:42.0 ~dur:8.0 (mark "c");
  match Telemetry.ring_events ring with
  | [ _; b; c ] ->
      Alcotest.(check (float 0.0)) "clock stamps" 250.0 b.Telemetry.ts;
      Alcotest.(check (float 0.0)) "explicit ts wins" 42.0 c.Telemetry.ts;
      Alcotest.(check (float 0.0)) "duration recorded" 8.0 c.Telemetry.dur
  | _ -> Alcotest.fail "expected three events"

(* Every rendered event — JSONL line and Chrome trace object — must be
   valid JSON with the schema documented in EXPERIMENTS.md.  The
   experiment layer's parser is the independent check. *)
let test_telemetry_json () =
  List.iteri
    (fun i ev ->
      let st = { Telemetry.seq = i; ts = float_of_int i; dur = 1.0; ev } in
      let has fields k = List.mem_assoc k fields in
      (match Vc_exp.Jsonx.parse (Telemetry.jsonl_of_event st) with
      | Ok (Vc_exp.Jsonx.Obj fields) ->
          check_bool "jsonl has seq/ts/dur/name/args" true
            (List.for_all (has fields) [ "seq"; "ts"; "dur"; "name"; "args" ])
      | Ok _ -> Alcotest.fail "jsonl line is not an object"
      | Error m ->
          Alcotest.failf "jsonl unparseable (%s): %s" m
            (Telemetry.jsonl_of_event st));
      match Vc_exp.Jsonx.parse (Telemetry.chrome_of_event st) with
      | Ok (Vc_exp.Jsonx.Obj fields) ->
          check_bool "chrome event has ph/ts/name" true
            (List.for_all (has fields) [ "ph"; "ts"; "name" ])
      | Ok _ -> Alcotest.fail "chrome event is not an object"
      | Error m ->
          Alcotest.failf "chrome event unparseable (%s): %s" m
            (Telemetry.chrome_of_event st))
    sample_events

let test_telemetry_chrome_sink () =
  let path = Filename.temp_file "vc-trace" ".json" in
  let oc = open_out path in
  let tel = Telemetry.with_sinks [ Telemetry.chrome_sink oc ] in
  List.iter (Telemetry.emit tel) sample_events;
  Telemetry.flush tel;
  Telemetry.flush tel (* idempotent: the array is finalized exactly once *);
  close_out oc;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Vc_exp.Jsonx.parse contents with
  | Ok (Vc_exp.Jsonx.List evs) ->
      check_int "one trace event per emitted event" (List.length sample_events)
        (List.length evs);
      List.iter
        (function
          | Vc_exp.Jsonx.Obj fields ->
              check_bool "ph present" true (List.mem_assoc "ph" fields)
          | _ -> Alcotest.fail "trace event is not an object")
        evs
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"
  | Error m -> Alcotest.failf "chrome trace unparseable: %s" m

let test_telemetry_level_sink () =
  let sink, levels = Telemetry.level_sink () in
  let tel = Telemetry.with_sinks [ sink ] in
  List.iter (Telemetry.emit tel) sample_events;
  (match levels () with
  | [ { Telemetry.ev = Telemetry.Level { phase; depth; size; base }; _ } ] ->
      check_bool "payload preserved" true
        (phase = Telemetry.Bfs && depth = 0 && size = 1 && base = 0)
  | evs -> Alcotest.failf "expected the one Level event, got %d" (List.length evs));
  Telemetry.clear tel;
  check_int "clear empties the level list" 0 (List.length (levels ()))

let test_telemetry_counting_sink () =
  let sink, counts = Telemetry.counting_sink () in
  let tel = Telemetry.with_sinks [ sink ] in
  let recovery =
    [
      Telemetry.Fault { site = "compaction"; detail = "injected" };
      Telemetry.Fallback { depth = 2; size = 8 };
      Telemetry.Deadline { resource = "cycles"; limit = 1.0; actual = 2.0 };
    ]
  in
  List.iter (Telemetry.emit tel) (sample_events @ recovery @ recovery);
  let c = counts () in
  check_int "faults" 2 c.Telemetry.faults;
  check_int "fallbacks" 2 c.Telemetry.fallbacks;
  check_int "deadlines" 2 c.Telemetry.deadlines;
  Telemetry.clear tel;
  check_int "totals survive clear" 2 (counts ()).Telemetry.faults

(* [vcilk trace] regression: full-scale fib emits far more events than
   the 65,536-event ring the timeline once read, which cut the plot to
   the run's last quarter.  The level list must hold every level, and the
   plot must start at the first one. *)
let test_trace_timeline_spans_run () =
  let spec = (Vc_bench.Registry.find "fib").Vc_bench.Registry.spec () in
  let sink, levels = Telemetry.level_sink () in
  let events = ref 0 in
  let tel =
    Telemetry.with_sinks [ sink; Telemetry.callback_sink (fun _ -> incr events) ]
  in
  let r =
    Engine.run ~telemetry:tel ~spec ~machine:e5
      ~strategy:(Policy.Hybrid { max_block = 256; reexpand = true })
      ()
  in
  let levels = levels () in
  check_bool "more events than the old ring held" true (!events > 65536);
  check_int "every level collected"
    (Array.fold_left ( + ) 0 r.Report.occupancy_hist)
    (List.length levels);
  let width = Vc_simd.Isa.lanes e5.Vc_mem.Machine.isa (Schema.lane_kind spec.Spec.schema) in
  let first_x =
    List.fold_left
      (fun acc phase ->
        List.fold_left (fun acc (x, _) -> min acc x) acc
          (Telemetry.occupancy_points ~width phase levels))
      infinity
      [ Telemetry.Bfs; Telemetry.Blocked; Telemetry.Cutoff ]
  in
  Alcotest.(check (float 0.0)) "first plotted point is the first level"
    ((List.hd levels).Telemetry.ts /. 1e3) first_x;
  check_bool "plot starts in the run's first 1%" true
    (first_x *. 1e3 < 0.01 *. r.Report.cycles)

let test_telemetry_occupancy () =
  Alcotest.(check (float 1e-12)) "full width" 1.0
    (Telemetry.occupancy ~width:8 ~size:8);
  Alcotest.(check (float 1e-12)) "9 tasks pad to 2 vectors" (9.0 /. 16.0)
    (Telemetry.occupancy ~width:8 ~size:9);
  Alcotest.(check (float 1e-12)) "empty level" 0.0
    (Telemetry.occupancy ~width:8 ~size:0);
  Alcotest.(check (float 1e-12)) "degenerate width" 0.0
    (Telemetry.occupancy ~width:0 ~size:5)

(* End-to-end: the engine's event stream is consistent with its report,
   and attaching telemetry does not perturb the model. *)
let test_engine_telemetry () =
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 7 } in
  let strategy = Policy.Hybrid { max_block = 32; reexpand = true } in
  let plain = Engine.run ~spec ~machine:e5 ~strategy () in
  let ring = Telemetry.ring ~capacity:65536 in
  let tel = Telemetry.with_sinks [ ring ] in
  let r = Engine.run ~telemetry:tel ~spec ~machine:e5 ~strategy () in
  check_bool "telemetry does not perturb the model" true (Report.equal plain r);
  let evs = Telemetry.ring_events ring in
  check_bool "events captured" true (evs <> []);
  let by p = List.filter (fun s -> p s.Telemetry.ev) evs in
  (* Level slices partition the executed tasks, like the legacy trace *)
  check_int "level sizes sum to tasks" r.Report.tasks
    (List.fold_left
       (fun acc s ->
         match s.Telemetry.ev with
         | Telemetry.Level { size; _ } -> acc + size
         | _ -> acc)
       0
       (Telemetry.levels evs));
  check_bool "a bfs->blocked switch was recorded" true
    (by (function Telemetry.Switch _ -> true | _ -> false) <> []);
  check_int "one Reexpand event per reported re-expansion" r.Report.reexp_count
    (List.length (by (function Telemetry.Reexpand _ -> true | _ -> false)));
  (* compaction pass totals agree with the report counter *)
  check_int "compaction passes match the report" r.Report.compaction_passes
    (List.fold_left
       (fun acc s ->
         match s.Telemetry.ev with
         | Telemetry.Compaction { passes; _ } -> acc + passes
         | _ -> acc)
       0 evs);
  check_bool "cache deltas recorded" true
    (by (function Telemetry.Cache _ -> true | _ -> false) <> []);
  (* timestamps are modeled cycles: monotone per emission order, bounded
     by the report's total *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Telemetry.ts <= b.Telemetry.ts +. 1e-9 && monotone rest
    | _ -> true
  in
  check_bool "timestamps ride the modeled clock" true
    (monotone (Telemetry.levels evs));
  List.iter
    (fun s ->
      check_bool "event times within the modeled run" true
        (s.Telemetry.ts >= 0.0 && s.Telemetry.ts <= r.Report.cycles +. 1.0))
    evs

(* A stream sink whose channel breaks surfaces one typed telemetry error,
   is dropped, and never starves the other sinks. *)
let test_telemetry_sink_failure () =
  let path = Filename.temp_file "vc-dead-sink" ".jsonl" in
  let oc = open_out path in
  let ring = Telemetry.ring ~capacity:8 in
  (* ring first: it must receive every event even when the jsonl sink
     dies mid-fanout *)
  let tel = Telemetry.with_sinks [ ring; Telemetry.jsonl_sink oc ] in
  Telemetry.emit tel (mark "ok");
  close_out oc;
  (match Telemetry.emit tel (mark "boom") with
  | () -> Alcotest.fail "write to a closed channel should raise a typed error"
  | exception Vc_error.Error e ->
      check_bool "site is telemetry" true
        (Vc_error.site_of e = Some Vc_error.Telemetry);
      check_bool "hinted discard" true
        (Vc_error.hint_of e = Some Vc_error.Discard_entry);
      check_int "exit code 1" 1 (Vc_error.exit_code e));
  (* the sink is dead now: emits and flushes are clean no-ops for it *)
  Telemetry.emit tel (mark "after");
  Telemetry.flush tel;
  Sys.remove path;
  Alcotest.(check (list string)) "ring saw every event despite the dead sink"
    [ "ok"; "boom"; "after" ]
    (List.filter_map
       (fun s ->
         match s.Telemetry.ev with Telemetry.Mark m -> Some m | _ -> None)
       (Telemetry.ring_events ring))

(* ------------------------------------------------------------------ *)
(* Profile: cycle attribution over spans                               *)

let run_profiled ?cutoff ?faults ?(warm = false) ~spec strategy =
  let tel = Telemetry.create () in
  let prof = Profile.create () in
  Profile.attach prof tel;
  let r =
    Engine.run ?cutoff ?faults ~warm ~telemetry:tel ~spec ~machine:e5 ~strategy ()
  in
  (prof, r)

let profile_paths prof = List.map (fun f -> f.Profile.stack) (Profile.frames prof)

(* The acceptance criterion: attributed cycles reconcile EXACTLY — float
   equality, no epsilon — with the report's modeled cycles.  All ISA
   costs and miss penalties are multiples of 0.5, so clock readings,
   span deltas and their sums are exact doubles and must telescope to
   the total. *)
let test_profile_reconciles_exactly () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 16 } in
  let prof, r =
    run_profiled ~spec (Policy.Hybrid { max_block = 64; reexpand = true })
  in
  Alcotest.(check (float 0.0)) "attributed total == Report.cycles (bit-exact)"
    r.Report.cycles (Profile.total_cycles prof);
  check_int "all spans balanced" 0 (Profile.unbalanced prof);
  let paths = profile_paths prof in
  check_bool "root frame" true (List.mem [ "fib" ] paths);
  check_bool "expand phase" true (List.mem [ "fib"; "expand" ] paths);
  check_bool "blocked phase" true (List.mem [ "fib"; "blocked" ] paths);
  check_bool "compaction attributed under a phase" true
    (List.mem [ "fib"; "expand"; "compact" ] paths
    || List.mem [ "fib"; "blocked"; "compact" ] paths);
  check_bool "spawn sites attributed" true
    (List.mem [ "fib"; "expand"; "spawn:site0" ] paths
    || List.mem [ "fib"; "blocked"; "spawn:site0" ] paths);
  check_bool "no untracked time" true
    (List.for_all
       (fun f -> f.Profile.stack <> [ "(untracked)" ] || f.Profile.cycles = 0.0)
       (Profile.frames prof))

(* Folded-stack output is the export consumers sum: parsing it back and
   summing the count column must reconcile exactly too (cycle counts are
   printed losslessly; float addition of exact half-integers is exact in
   any order). *)
let test_profile_folded_reconciles () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 16 } in
  let prof, r =
    run_profiled ~spec (Policy.Hybrid { max_block = 64; reexpand = true })
  in
  let lines =
    String.split_on_char '\n' (Profile.folded prof)
    |> List.filter (fun l -> l <> "")
  in
  check_bool "folded output is non-empty" true (lines <> []);
  let sum =
    List.fold_left
      (fun acc line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed folded line: %s" line
        | Some i ->
            let stack = String.sub line 0 i in
            check_bool "path rooted at the benchmark" true
              (String.length stack >= 3 && String.sub stack 0 3 = "fib");
            acc
            +. float_of_string
                 (String.sub line (i + 1) (String.length line - i - 1)))
      0.0 lines
  in
  Alcotest.(check (float 0.0)) "folded column sums to Report.cycles"
    r.Report.cycles sum

(* The engine's warm pass clears the hub between passes; the profiler
   must reset with it or measured totals would double-count. *)
let test_profile_warm_run_resets () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 14 } in
  let prof, r =
    run_profiled ~warm:true ~spec (Policy.Hybrid { max_block = 32; reexpand = true })
  in
  Alcotest.(check (float 0.0)) "only the measured pass is attributed"
    r.Report.cycles (Profile.total_cycles prof);
  check_int "balanced after reset" 0 (Profile.unbalanced prof)

(* Cutoff and fault-recovery work lands in dedicated frames, and the
   reconciliation invariant survives both. *)
let test_profile_cutoff_and_fallback_frames () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 14 } in
  let prof, r =
    run_profiled ~cutoff:64 ~spec (Policy.Hybrid { max_block = 16; reexpand = true })
  in
  Alcotest.(check (float 0.0)) "cutoff run reconciles" r.Report.cycles
    (Profile.total_cycles prof);
  check_bool "cutoff frame present" true
    (List.exists (List.mem "cutoff") (profile_paths prof));
  let plan = Fault.make ~rate:1.0 ~seed:7 ~sites:[ Fault.Compact ] () in
  let prof, r =
    run_profiled ~faults:plan ~spec
      (Policy.Hybrid { max_block = 16; reexpand = true })
  in
  Alcotest.(check (float 0.0)) "faulted run reconciles" r.Report.cycles
    (Profile.total_cycles prof);
  check_bool "fallback frame present" true
    (List.exists (List.mem "fallback") (profile_paths prof));
  check_bool "faults counted on their frame" true
    (List.exists (fun f -> f.Profile.faults > 0) (Profile.frames prof))

(* Hand-fed streams: unbalanced closes are tolerated and counted, and
   compaction/convert counters land on the innermost open frame. *)
let test_profile_unbalanced_and_counters () =
  let prof = Profile.create () in
  let feed i ev = Profile.observe prof { Telemetry.seq = i; ts = float_of_int i; dur = 0.0; ev } in
  feed 0 (Telemetry.Span_open { frame = "a" });
  feed 1 (Telemetry.Span_open { frame = "b" });
  feed 2 (Telemetry.Compaction { engine = "shuffle"; width = 8; n = 32; passes = 3 });
  feed 3 (Telemetry.Convert { to_soa = true; n = 8; fields = 2 });
  (* closes "a" through the still-open "b" *)
  feed 4 (Telemetry.Span_close { frame = "a" });
  (* stray close with nothing open *)
  feed 5 (Telemetry.Span_close { frame = "zzz" });
  check_int "two unbalanced boundaries" 2 (Profile.unbalanced prof);
  let frames = Profile.frames prof in
  let node path = List.find (fun f -> f.Profile.stack = path) frames in
  check_int "compaction calls on a;b" 1 (node [ "a"; "b" ]).Profile.compaction_calls;
  check_int "compaction passes on a;b" 3
    (node [ "a"; "b" ]).Profile.compaction_passes;
  check_int "converts on a;b" 1 (node [ "a"; "b" ]).Profile.converts;
  Alcotest.(check (float 0.0)) "a holds [0,1)" 1.0 (node [ "a" ]).Profile.cycles;
  Alcotest.(check (float 0.0)) "a;b holds [1,4)" 3.0 (node [ "a"; "b" ]).Profile.cycles;
  Alcotest.(check (float 0.0)) "stray tail is untracked" 1.0
    (node [ "(untracked)" ]).Profile.cycles;
  Alcotest.(check (float 0.0)) "total telescopes" 5.0 (Profile.total_cycles prof);
  (* hotspot table and JSON render without error and carry the total *)
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Profile.pp_hotspots ~top:2 fmt prof;
  Format.pp_print_flush fmt ();
  check_bool "hotspot table mentions total" true
    (let s = Buffer.contents buf in
     let re = "total:" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0);
  match Vc_exp.Jsonx.parse (Profile.json_string prof) with
  | Ok (Vc_exp.Jsonx.Obj fields) ->
      check_bool "json has total_cycles + frames" true
        (List.mem_assoc "total_cycles" fields && List.mem_assoc "frames" fields)
  | Ok _ -> Alcotest.fail "profile json is not an object"
  | Error m -> Alcotest.failf "profile json unparseable: %s" m

(* The blocked interpreter emits the same span vocabulary (seq-number
   clock): open/close pairs balance over a full run. *)
let test_profile_blocked_interp_spans () =
  let t = Transform.transform fib_program in
  let tel = Telemetry.create () in
  let prof = Profile.create () in
  Profile.attach prof tel;
  let b = interp_run ~opts:{ Backend.default_opts with telemetry = Some tel } t [ 12 ] in
  check_int "fib 12" 144 (List.assoc "result" b.Backend.reducers);
  check_int "spans balance" 0 (Profile.unbalanced prof);
  let paths = profile_paths prof in
  check_bool "root method frame" true (List.mem [ "fib" ] paths);
  check_bool "expand frame" true (List.mem [ "fib"; "expand" ] paths)

(* ------------------------------------------------------------------ *)
(* Metrics / Measure / Report                                          *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.tasks_at_level m ~depth:0 ~n:1;
  Metrics.tasks_at_level m ~depth:5 ~n:10;
  Metrics.base_at_level m ~depth:5 ~n:4;
  Metrics.live_threads m 7;
  Metrics.live_threads m 3;
  Metrics.reexpansion m ~depth:5 ~before:2;
  Metrics.reexpansion_growth m ~depth:5 ~factor:3.0;
  Metrics.reexpansion_growth m ~depth:5 ~factor:5.0;
  check_int "total" 11 (Metrics.total_tasks m);
  check_int "base" 4 (Metrics.total_base m);
  check_int "depth" 5 (Metrics.max_depth m);
  check_int "space peak" 7 (Metrics.space_peak m);
  (match Metrics.reexpansions m with
  | [| (5, 1, f) |] -> Alcotest.(check (float 1e-9)) "mean factor" 4.0 f
  | _ -> Alcotest.fail "reexpansions");
  let levels = Metrics.levels m in
  check_int "levels len" 6 (Array.length levels);
  check_bool "level 5" true (levels.(5) = (10, 4))

(* Read APIs on a freshly created (empty) collector: everything is
   well-defined, and returned arrays are copies/fresh. *)
let test_metrics_read_empty () =
  let m = Metrics.create () in
  check_int "no tasks" 0 (Metrics.total_tasks m);
  check_int "space peak" 0 (Metrics.space_peak m);
  check_int "no reexpansions" 0 (Array.length (Metrics.reexpansions m));
  check_int "reexpansion total" 0 (Metrics.reexpansion_total m);
  (match Metrics.levels m with
  | [| (0, 0) |] -> ()
  | l -> Alcotest.failf "empty levels should be [|(0,0)|], got %d rows" (Array.length l));
  let hist = Metrics.occupancy_hist m in
  check_int "10 occupancy buckets" 10 (Array.length hist);
  check_bool "all buckets empty" true (Array.for_all (( = ) 0) hist);
  hist.(0) <- 42;
  check_bool "occupancy_hist returns a copy" true
    (Array.for_all (( = ) 0) (Metrics.occupancy_hist m))

(* Read APIs after a single level, plus occupancy_sample's non-positive
   input guard. *)
let test_metrics_read_single_level () =
  let m = Metrics.create () in
  Metrics.tasks_at_level m ~depth:0 ~n:5;
  Metrics.base_at_level m ~depth:0 ~n:2;
  Metrics.live_threads m 5;
  Metrics.occupancy_sample m ~n:5 ~width:8;
  (match Metrics.levels m with
  | [| (5, 2) |] -> ()
  | _ -> Alcotest.fail "single-level levels");
  check_int "space peak tracks the level" 5 (Metrics.space_peak m);
  check_int "no reexpansions recorded" 0 (Array.length (Metrics.reexpansions m));
  check_int "reexpansion total" 0 (Metrics.reexpansion_total m);
  (* occupancy 5/8 = 0.625 lands in bucket 6 *)
  let hist = Metrics.occupancy_hist m in
  check_int "bucket 6" 1 hist.(6);
  check_int "one sample total" 1 (Array.fold_left ( + ) 0 hist);
  (* non-positive inputs are guarded: no bucket moves, nothing raises *)
  Metrics.occupancy_sample m ~n:0 ~width:8;
  Metrics.occupancy_sample m ~n:(-3) ~width:8;
  Metrics.occupancy_sample m ~n:5 ~width:0;
  Metrics.occupancy_sample m ~n:5 ~width:(-1);
  check_int "guarded samples ignored" 1
    (Array.fold_left ( + ) 0 (Metrics.occupancy_hist m));
  (* full occupancy lands in the top bucket *)
  Metrics.occupancy_sample m ~n:8 ~width:8;
  check_int "bucket 9" 1 (Metrics.occupancy_hist m).(9)

let test_report_speedup () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 10 } in
  let seq = Seq_exec.run ~spec ~machine:e5 () in
  Alcotest.(check (float 1e-9)) "self speedup" 1.0 (Report.speedup ~baseline:seq seq);
  let oom = Report.oom_placeholder ~benchmark:"x" ~machine:"e5" ~strategy:"bfs" in
  Alcotest.(check (float 1e-9)) "oom speedup" 0.0 (Report.speedup ~baseline:seq oom);
  check_int "reducer lookup" (Vc_bench.Fib.reference { Vc_bench.Fib.n = 10 })
    (Report.reducer seq "result")

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)

let hybrid8 = Policy.Hybrid { max_block = 8; reexpand = true }

let supervised_engine ?faults ?budgets spec =
  Supervisor.run (fun telemetry ->
      Engine.run ~telemetry ?faults ?budgets ~spec ~machine:e5
        ~strategy:hybrid8 ())

let test_supervisor_recovers () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 12 } in
  let reference = Engine.run ~spec ~machine:e5 ~strategy:hybrid8 () in
  let plan = Fault.make ~rate:1.0 ~seed:7 ~sites:[ Fault.Compact; Fault.Alloc ] () in
  match supervised_engine ~faults:plan spec with
  | Error e -> Alcotest.failf "no recovery: %s" (Vc_error.to_string e)
  | Ok o ->
      check_bool "reducers equal" true
        (o.Supervisor.value.Report.reducers = reference.Report.reducers);
      check_int "tasks equal" reference.Report.tasks
        o.Supervisor.value.Report.tasks;
      check_int "base tasks equal" reference.Report.base_tasks
        o.Supervisor.value.Report.base_tasks;
      check_bool "faults were injected" true (o.Supervisor.faults_seen > 0);
      check_bool "scalar fallback fired" true (o.Supervisor.fallbacks > 0)

let test_supervisor_deadline () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 18 } in
  let budgets = Supervisor.budgets ~deadline:100.0 () in
  match supervised_engine ~budgets spec with
  | Ok _ -> Alcotest.fail "deadline did not fire"
  | Error e ->
      check_bool "budget error" true (Vc_error.is_budget e);
      check_int "exit code 2" 2 (Vc_error.exit_code e)

let test_supervisor_live_frames () =
  let spec = Vc_bench.Fib.spec { Vc_bench.Fib.n = 18 } in
  let budgets = Supervisor.budgets ~max_live_frames:4 () in
  match supervised_engine ~budgets spec with
  | Ok _ -> Alcotest.fail "live-frame budget did not fire"
  | Error e ->
      check_bool "budget error" true (Vc_error.is_budget e);
      check_int "exit code 2" 2 (Vc_error.exit_code e)

(* [Fault.trip]'s detail is a thunk: forced exactly once per injected
   fault, never under [Fault.none], at a disarmed site or on a call that
   does not fire; the injected error text is the eager one. *)
let test_fault_detail_on_fire () =
  let forced = ref 0 in
  let detail () =
    incr forced;
    "partition of 8 frames at depth 3"
  in
  let trip plan =
    Fault.trip plan Fault.Compact ~phase:Vc_error.Execute ~hint:Vc_error.Fallback_scalar
      ~detail
  in
  for _ = 1 to 100 do
    trip Fault.none
  done;
  check_int "Fault.none never forces" 0 !forced;
  let elsewhere = Fault.make ~rate:1.0 ~seed:7 ~sites:[ Fault.Alloc ] () in
  for _ = 1 to 100 do
    trip elsewhere
  done;
  check_int "a disarmed site never forces" 0 !forced;
  let plan = Fault.make ~rate:0.25 ~seed:3 ~sites:[ Fault.Compact ] () in
  let fired = ref 0 in
  for k = 0 to 199 do
    match trip plan with
    | () -> check_int "a call that does not fire forces nothing" !fired !forced
    | exception Vc_error.Error e ->
        incr fired;
        check_int "forced once per fault" !fired !forced;
        Alcotest.(check string)
          "error text"
          (Printf.sprintf
             "[compaction/execute] injected fault #%d at compact: partition of 8 frames at \
              depth 3 (recovery: fallback-scalar)"
             k)
          (Vc_error.to_string e)
  done;
  check_bool "some calls fired, some did not" true (!fired > 0 && !fired < 200);
  check_int "fired = plan's count" !fired (Fault.total_fired plan)

let test_soa_fault_fallback () =
  let vm = Vc_simd.Vm.create Vc_simd.Isa.sse42 in
  let addr = Addr.create () in
  let s = Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "x"; "y" ] in
  let frames = Array.init 33 (fun i -> [| i; i * 7 |]) in
  let plan = Fault.make ~rate:1.0 ~seed:5 ~sites:[ Fault.Convert ] () in
  let tel = Telemetry.create () in
  let events = ref [] in
  Telemetry.attach tel (Telemetry.callback_sink (fun st -> events := st :: !events));
  let blk =
    Soa.aos_to_soa ~telemetry:tel ~faults:plan ~vm ~addr ~schema:s
      ~isa:Vc_simd.Isa.sse42 ~aos_base:0x100000 ~frames ()
  in
  let back = Soa.soa_to_aos ~telemetry:tel ~faults:plan ~vm ~aos_base:0x100000 blk in
  check_bool "scalar fallback is the identity" true (back = frames);
  check_int "both conversions faulted" 2 (Fault.total_fired plan);
  let count p = List.length (List.filter p !events) in
  check_int "fault events" 2
    (count (fun st ->
         match st.Telemetry.ev with Telemetry.Fault _ -> true | _ -> false));
  check_int "fallback events" 2
    (count (fun st ->
         match st.Telemetry.ev with Telemetry.Fallback _ -> true | _ -> false))

let test_blocked_interp_budget () =
  let t = Transform.transform fib_program in
  let source = Backend.Ir t in
  let supervised ?(budgets = Supervisor.no_budgets) n =
    Supervisor.run (fun telemetry ->
        let opts =
          { Backend.default_opts with telemetry = Some telemetry; budgets }
        in
        Backend.run ~opts Backend.interp source ~roots:[ [| n |] ])
  in
  (match supervised ~budgets:(Supervisor.budgets ~max_live_frames:2 ()) 12 with
  | Ok _ -> Alcotest.fail "live-frame budget did not fire"
  | Error e ->
      check_bool "budget error" true (Vc_error.is_budget e);
      check_int "exit code 2" 2 (Vc_error.exit_code e));
  match supervised 10 with
  | Ok o ->
      check_int "fib 10" 55
        (List.assoc "result" o.Supervisor.value.Backend.reducers)
  | Error e -> Alcotest.failf "unbudgeted run failed: %s" (Vc_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                   *)

module H = Metrics.Histogram

let test_histogram_buckets () =
  let h = H.create ~shards:1 ~buckets:4 ~lo:1.0 ~hi:1000.0 () in
  check_int "below lo lands in bucket 0" 0 (H.bucket_index h 0.5);
  check_int "lo lands in bucket 0" 0 (H.bucket_index h 1.0);
  check_int "hi lands in the last finite bucket" 3 (H.bucket_index h 1000.0);
  check_int "above hi overflows" 4 (H.bucket_index h 1000.1);
  Alcotest.(check (float 1e-9)) "last finite bound is exactly hi" 1000.0
    (H.bounds h).(3);
  Alcotest.(check (float 0.0)) "empty quantile is 0" 0.0 (H.quantile h 0.5);
  List.iter (H.add h) [ 0.2; 2.0; 30.0; 400.0; 5000.0 ];
  check_int "exact count" 5 (H.count h);
  Alcotest.(check (float 1e-9)) "exact sum" 5432.2 (H.sum h);
  Alcotest.(check (float 0.0)) "exact max" 5000.0 (H.max_value h);
  check_int "overflow counted" 1 (H.counts h).(4);
  let le, cum = (H.cumulative h).(4) in
  Alcotest.(check bool) "cumulative ends at +inf" true (le = infinity);
  check_int "cumulative ends at total" 5 cum;
  Alcotest.(check (float 0.0)) "overflow quantile is the exact max" 5000.0
    (H.quantile h 1.0);
  (* layout mismatches refuse to merge *)
  let other = H.create ~shards:1 ~buckets:8 ~lo:1.0 ~hi:1000.0 () in
  match H.merge h other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "layout mismatch must not merge"

(* every sample list used by the properties: positive, spanning below lo
   through past hi so the overflow path is exercised *)
let arb_samples =
  QCheck.(list_of_size Gen.(int_range 1 300) (float_range 0.01 90000.0))

let hist_layout () = H.create ~shards:1 ~buckets:16 ~lo:0.05 ~hi:60000.0 ()

let hist_of samples =
  let h = hist_layout () in
  List.iter (H.add h) samples;
  h

let quantile_oracle_agree_random =
  QCheck.Test.make ~name:"histogram quantile = sorted oracle's bucket"
    ~count:200 arb_samples (fun samples ->
      let h = hist_of samples in
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = List.nth sorted (rank - 1) in
          H.bucket_index h (H.quantile h q) = H.bucket_index h exact)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let quantile_monotone_random =
  QCheck.Test.make ~name:"histogram quantiles are monotone in q" ~count:200
    arb_samples (fun samples ->
      let h = hist_of samples in
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ] in
      let vs = List.map (H.quantile h) qs in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a <= b && ascending rest
        | _ -> true
      in
      ascending vs)

let merge_commutes_random =
  QCheck.Test.make ~name:"histogram merge commutes" ~count:200
    QCheck.(pair arb_samples arb_samples)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      let ab = H.merge a b and ba = H.merge b a in
      H.counts ab = H.counts ba
      && H.count ab = H.count ba
      && abs_float (H.sum ab -. H.sum ba) < 1e-9
      && H.max_value ab = H.max_value ba)

let merge_associates_random =
  QCheck.Test.make ~name:"histogram merge associates" ~count:200
    QCheck.(triple arb_samples arb_samples arb_samples)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      let l = H.merge (H.merge a b) c and r = H.merge a (H.merge b c) in
      H.counts l = H.counts r
      && H.count l = H.count r
      && abs_float (H.sum l -. H.sum r) < 1e-6
      && H.max_value l = H.max_value r)

(* concurrent adds from several domains must lose nothing: the whole
   point of the per-domain shards *)
let test_histogram_concurrent_adds () =
  let h = H.create () in
  let domains = 4 and per_domain = 5_000 in
  let spawn i =
    Domain.spawn (fun () ->
        for k = 1 to per_domain do
          H.add h (float_of_int ((i * per_domain) + k) /. 100.0)
        done)
  in
  List.init domains spawn |> List.iter Domain.join;
  check_int "no sample lost across domains" (domains * per_domain)
    (H.count h);
  let expected_sum =
    let s = ref 0.0 in
    for v = 1 to domains * per_domain do
      s := !s +. (float_of_int v /. 100.0)
    done;
    !s
  in
  Alcotest.(check (float 1e-3)) "sum is exact across domains" expected_sum
    (H.sum h);
  check_int "counts table agrees with count" (domains * per_domain)
    (Array.fold_left ( + ) 0 (H.counts h))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vc_core"
    [
      ( "data",
        [
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "addr" `Quick test_addr;
          Alcotest.test_case "block" `Quick test_block;
          Alcotest.test_case "block growth" `Quick test_block_growth;
          Alcotest.test_case "copy row" `Quick test_block_copy_row;
          Alcotest.test_case "soa roundtrip" `Quick test_soa_roundtrip;
        ] );
      ("policy", [ Alcotest.test_case "thresholds" `Quick test_policy ]);
      ( "transform",
        [
          Alcotest.test_case "rewrite rules" `Quick test_rewrite_rules;
          Alcotest.test_case "fib transform" `Quick test_transform_fib;
          Alcotest.test_case "rejects invalid" `Quick test_transform_rejects_invalid;
        ] );
      ( "blocked-interp",
        [
          Alcotest.test_case "fib equivalence" `Quick test_blocked_interp_fib;
          Alcotest.test_case "strategy switches" `Quick test_blocked_interp_switches;
          Alcotest.test_case "task limit" `Quick test_blocked_interp_task_limit;
        ]
        @ qsuite [ blocked_interp_equiv_random ] );
      ( "compile",
        [ Alcotest.test_case "fib spec equivalence" `Quick test_compile_fib_spec ]
        @ qsuite [ compile_equiv_random ] );
      ( "engine",
        [
          Alcotest.test_case "matches sequential on all benchmarks" `Quick
            test_engine_matches_seq_all_benchmarks;
          Alcotest.test_case "compaction engines agree" `Quick
            test_engine_compaction_engines_agree;
          Alcotest.test_case "OOM on bfs-only" `Quick test_engine_oom;
          Alcotest.test_case "utilization grows with block" `Quick
            test_engine_utilization_grows_with_block;
          Alcotest.test_case "re-expansion raises utilization" `Quick
            test_engine_reexpansion_raises_utilization;
          Alcotest.test_case "seq task limit" `Quick test_seq_exec_task_limit;
          Alcotest.test_case "task cut-off" `Quick test_engine_cutoff;
          Alcotest.test_case "native callbacks allocate nothing per task" `Quick
            test_engine_callbacks_allocate_nothing;
          Alcotest.test_case "warm cache" `Quick test_engine_warm_cache;
          Alcotest.test_case "engine block storage follows the live frontier" `Quick
            test_engine_storage_follows_frontier;
          Alcotest.test_case "stale host columns never change a modeled report" `Quick
            test_engine_stale_columns;
          Alcotest.test_case "trace timeline" `Quick test_engine_trace;
          Alcotest.test_case "strawman" `Quick test_strawman;
          Alcotest.test_case "strawman task limit is a typed budget" `Quick
            test_strawman_task_budget;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "exact results" `Quick test_multicore_exact_results;
          Alcotest.test_case "scaling" `Quick test_multicore_scales;
          Alcotest.test_case "errors" `Quick test_multicore_errors;
          Alcotest.test_case "job OOM yields an oom report" `Quick
            test_multicore_oom_report;
          Alcotest.test_case "chunk driver: lowest-index error, events in order" `Quick
            test_run_chunks_first_error;
          Alcotest.test_case "empty frontier runs no chunks" `Quick
            test_multicore_empty_frontier;
          Alcotest.test_case "chrome trace of a domains run is complete" `Quick
            test_multicore_chrome_trace_complete;
          Alcotest.test_case "ws-sim single worker" `Quick test_ws_sim_single_worker;
          Alcotest.test_case "ws-sim balances" `Quick test_ws_sim_balances;
          Alcotest.test_case "ws-sim deterministic" `Quick test_ws_sim_deterministic;
          Alcotest.test_case "multicore + work stealing" `Quick
            test_multicore_work_stealing_schedule;
        ]
        @ qsuite [ ws_sim_bounds ] );
      ("opportunity", [ Alcotest.test_case "table 3 row" `Quick test_opportunity ]);
      ( "telemetry",
        [
          Alcotest.test_case "ring buffer window" `Quick test_telemetry_ring;
          Alcotest.test_case "disabled hub is a no-op" `Quick
            test_telemetry_disabled;
          Alcotest.test_case "clock and explicit stamps" `Quick
            test_telemetry_clock;
          Alcotest.test_case "jsonl + chrome rendering is valid JSON" `Quick
            test_telemetry_json;
          Alcotest.test_case "chrome sink finalizes one array" `Quick
            test_telemetry_chrome_sink;
          Alcotest.test_case "level sink keeps every level" `Quick
            test_telemetry_level_sink;
          Alcotest.test_case "counting sink tallies recovery events" `Quick
            test_telemetry_counting_sink;
          Alcotest.test_case "occupancy" `Quick test_telemetry_occupancy;
          Alcotest.test_case "trace timeline spans the whole run" `Quick
            test_trace_timeline_spans_run;
          Alcotest.test_case "engine event stream matches report" `Quick
            test_engine_telemetry;
          Alcotest.test_case "dead sink is dropped with a typed error" `Quick
            test_telemetry_sink_failure;
        ] );
      ( "profile",
        [
          Alcotest.test_case "attribution reconciles exactly with the report"
            `Quick test_profile_reconciles_exactly;
          Alcotest.test_case "folded stacks sum back to the report" `Quick
            test_profile_folded_reconciles;
          Alcotest.test_case "warm pass resets attribution" `Quick
            test_profile_warm_run_resets;
          Alcotest.test_case "cutoff and fallback frames" `Quick
            test_profile_cutoff_and_fallback_frames;
          Alcotest.test_case "unbalanced spans and counters" `Quick
            test_profile_unbalanced_and_counters;
          Alcotest.test_case "blocked interpreter spans balance" `Quick
            test_profile_blocked_interp_spans;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "collection" `Quick test_metrics;
          Alcotest.test_case "read APIs on an empty run" `Quick
            test_metrics_read_empty;
          Alcotest.test_case "read APIs on a single level" `Quick
            test_metrics_read_single_level;
          Alcotest.test_case "report speedup" `Quick test_report_speedup;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket layout, counts, quantiles" `Quick
            test_histogram_buckets;
          Alcotest.test_case "concurrent adds lose nothing" `Quick
            test_histogram_concurrent_adds;
        ]
        @ qsuite
            [
              quantile_oracle_agree_random; quantile_monotone_random;
              merge_commutes_random; merge_associates_random;
            ] );
      ( "supervisor",
        [
          Alcotest.test_case "fault recovery is exact" `Quick
            test_supervisor_recovers;
          Alcotest.test_case "cycle deadline exits 2" `Quick
            test_supervisor_deadline;
          Alcotest.test_case "live-frame budget exits 2" `Quick
            test_supervisor_live_frames;
          Alcotest.test_case "soa fault falls back to scalar copy" `Quick
            test_soa_fault_fallback;
          Alcotest.test_case "fault details are built only on fire" `Quick
            test_fault_detail_on_fire;
          Alcotest.test_case "blocked interp budgets" `Quick
            test_blocked_interp_budget;
        ] );
    ]
