(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation section (printed as data), runs the extra ablations, and then
   times one representative kernel per artifact with Bechamel.

   Set VC_BENCH_QUICK=1 (or pass --quick) for a fast smoke run on
   scaled-down inputs.  --jobs N sets the sweep's worker-domain count
   (default: the recommended domain count); --no-cache skips the
   persistent .vc-cache run cache.  A machine-readable summary —
   regeneration wall-clock, jobs used, per-artifact kernel times — is
   written to BENCH_sweep.json. *)

open Bechamel
open Toolkit
module Jsonx = Vc_exp.Jsonx

let say fmt = Format.printf fmt

let section title = say "@.=== %s ===@.@." title

let regenerate ctx =
  let fmt = Format.std_formatter in
  section "Tables";
  Vc_exp.Tables.table1 ctx fmt;
  Vc_exp.Tables.table2 ctx fmt;
  Vc_exp.Tables.table3 ctx fmt;
  section "Figures";
  Vc_exp.Figures.figure9 ctx fmt;
  Vc_exp.Figures.figure10 ctx fmt;
  Vc_exp.Figures.figure11 ctx fmt;
  Vc_exp.Figures.figure12 ctx fmt;
  Vc_exp.Figures.figure13 ctx fmt;
  Vc_exp.Figures.figure14 ctx fmt;
  Vc_exp.Figures.figure15 ctx fmt;
  Vc_exp.Figures.figure16 ctx fmt;
  Vc_exp.Figures.figure17 ctx fmt;
  section "Ablations";
  Vc_exp.Ablations.strawman ctx fmt;
  Vc_exp.Ablations.compaction_cost ctx fmt;
  Vc_exp.Ablations.dsl_vs_native ctx fmt;
  Vc_exp.Ablations.aos_soa_overhead ctx fmt;
  Vc_exp.Ablations.multicore ctx fmt;
  Vc_exp.Ablations.width_scaling ctx fmt;
  Vc_exp.Ablations.task_cutoff ctx fmt;
  Vc_exp.Ablations.warm_cache ctx fmt;
  section "Claims verification";
  (* reuses this run's cached sweeps, so this is nearly free *)
  Vc_exp.Claims.pp fmt (Vc_exp.Claims.all ctx)

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock of one representative computation per table /
   figure.  The regeneration above computes full (cached) sweeps; these
   time the underlying kernels that produce each artifact's data points,
   on quick-scale inputs so iteration counts stay sane. *)

let e5 = Vc_mem.Machine.xeon_e5
let phi = Vc_mem.Machine.xeon_phi

let quick_spec =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  fun name -> Vc_exp.Sweep.spec_of ctx (Vc_bench.Registry.find name)

let run_engine spec machine block =
  Staged.stage @@ fun () ->
  ignore
    (Vc_core.Engine.run ~spec ~machine
       ~strategy:(Vc_core.Policy.Hybrid { max_block = block; reexpand = true })
       ()
      : Vc_core.Report.t)

let run_seq spec machine =
  Staged.stage @@ fun () ->
  ignore (Vc_core.Seq_exec.run ~spec ~machine () : Vc_core.Report.t)

let bechamel_tests () =
  let fib = quick_spec "fib" in
  let nqueens = quick_spec "nqueens" in
  let knapsack = quick_spec "knapsack" in
  let parentheses = quick_spec "parentheses" in
  let graphcol = quick_spec "graphcol" in
  [
    Test.make ~name:"table1:seq-baseline(fib,e5)" (run_seq fib e5);
    Test.make ~name:"table2:reexp(fib,e5,2^8)" (run_engine fib e5 256);
    Test.make ~name:"table3:opportunity(nqueens,e5)" (run_engine nqueens e5 256);
    Test.make ~name:"figure9:levels(parentheses)" (run_seq parentheses e5);
    Test.make ~name:"figure10:utilization(fib,2^4)" (run_engine fib e5 16);
    Test.make ~name:"figure11:e5-cache(knapsack,2^12)" (run_engine knapsack e5 4096);
    Test.make ~name:"figure12:e5-speedup(graphcol,2^8)" (run_engine graphcol e5 256);
    Test.make ~name:"figure13:phi-cpi(knapsack,2^12)" (run_engine knapsack phi 4096);
    Test.make ~name:"figure14:phi-speedup(fib,2^8)" (run_engine fib phi 256);
    Test.make ~name:"figure15:reexpansion(nqueens,2^6)" (run_engine nqueens e5 64);
    Test.make ~name:"figure16:compaction(fib,seq-engine)"
      (Staged.stage @@ fun () ->
       ignore
         (Vc_core.Engine.run ~compact:Vc_simd.Compact.Sequential ~spec:fib
            ~machine:e5
            ~strategy:(Vc_core.Policy.Hybrid { max_block = 256; reexpand = true })
            ()
           : Vc_core.Report.t));
  ]

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let tests = Test.make_grouped ~name:"regen" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  say "@.=== Bechamel: wall-clock per regeneration kernel ===@.@.";
  match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
  | None ->
      say "(no results)@.";
      []
  | Some per_test ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
        |> List.sort compare
      in
      List.filter_map
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) ->
              say "%-45s %12.0f ns/run@." name est;
              Some (name, est)
          | _ ->
              say "%-45s (no estimate)@." name;
              None)
        rows

(* Summary telemetry of one representative run (deterministic: the model
   quantities of fib/e5 with re-expansion), so the perf-trajectory
   artifact also tracks scheduler-behavior drift across commits. *)
let telemetry_json ctx =
  let r =
    Vc_exp.Sweep.hybrid ctx
      (Vc_bench.Registry.find "fib")
      Vc_mem.Machine.xeon_e5 ~reexpand:true ~block:256
  in
  Jsonx.Obj
    [
      ("benchmark", String r.Vc_core.Report.benchmark);
      ("strategy", String r.Vc_core.Report.strategy);
      ("reexp_count", Int r.Vc_core.Report.reexp_count);
      ("compaction_calls", Int r.Vc_core.Report.compaction_calls);
      ("compaction_passes", Int r.Vc_core.Report.compaction_passes);
      ( "occupancy_hist",
        List
          (Array.to_list r.Vc_core.Report.occupancy_hist
          |> List.map (fun n -> Jsonx.Int n)) );
    ]

(* The perf-trajectory artifact: enough to compare sweeps across commits
   (total regeneration seconds, jobs used, per-artifact kernel times). *)
let write_sweep_json ~jobs ~quick ~regen_seconds ~simulated ~cache_hits ~kernels
    ~telemetry =
  let doc =
    Jsonx.Obj
      [
        ("version", Int 1);
        ("jobs", Int jobs);
        ("quick", Bool quick);
        ("total_regen_seconds", Float regen_seconds);
        ("simulated", Int simulated);
        ("disk_cache_hits", Int cache_hits);
        ( "kernels",
          List
            (List.map
               (fun (name, ns) ->
                 Jsonx.Obj [ ("name", String name); ("ns_per_run", Float ns) ])
               kernels) );
        ("telemetry", telemetry);
      ]
  in
  let oc = open_out_bin "BENCH_sweep.json" in
  output_string oc (Jsonx.to_string doc);
  output_char oc '\n';
  close_out oc;
  say "(wrote BENCH_sweep.json)@."

let () =
  let jobs = ref (Vc_exp.Pool.default_jobs ()) in
  let no_cache = ref false in
  let quick = ref false in
  let deadline = ref 0.0 in
  let wall_deadline = ref 0.0 in
  let max_live_frames = ref 0 in
  Arg.parse
    [
      ("--jobs", Arg.Set_int jobs, "N  worker domains for the sweep");
      ("--no-cache", Arg.Set no_cache, " skip the persistent .vc-cache run cache");
      ("--quick", Arg.Set quick, " scaled-down workloads (same as VC_BENCH_QUICK=1)");
      ( "--deadline",
        Arg.Set_float deadline,
        "CYCLES  modeled-cycle budget per engine run (exceeded: exit 2)" );
      ( "--wall-deadline",
        Arg.Set_float wall_deadline,
        "SECONDS  wall-clock budget per run (exceeded: exit 2)" );
      ( "--max-live-frames",
        Arg.Set_int max_live_frames,
        "N  live-frame budget per run (exceeded: exit 2)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--jobs N] [--no-cache] [--quick] [--deadline C] [--wall-deadline S] \
     [--max-live-frames N]";
  let opt_pos r = if !r > 0.0 then Some !r else None in
  let budgets =
    {
      Vc_core.Supervisor.deadline = opt_pos deadline;
      wall_deadline = opt_pos wall_deadline;
      max_live_frames = (if !max_live_frames > 0 then Some !max_live_frames else None);
    }
  in
  let ctx =
    Vc_exp.Sweep.create
      ?quick:(if !quick then Some true else None)
      ~jobs:!jobs
      ~cache_dir:(if !no_cache then None else Some ".vc-cache")
      ~budgets
      ~faults:(Vc_core.Fault.of_env ())
      ()
  in
  say "vectorcilk benchmark harness (quick mode: %b, jobs: %d)@."
    (Vc_exp.Sweep.quick ctx) (Vc_exp.Sweep.jobs ctx);
  try
    let t0 = Unix.gettimeofday () in
    Vc_exp.Sweep.prewarm ctx;
    regenerate ctx;
    Vc_exp.Sweep.persist ctx;
    let regen_seconds = Unix.gettimeofday () -. t0 in
    say "@.(regeneration took %.1fs; %d simulated, %d disk-cache hits)@."
      regen_seconds
      (Vc_exp.Sweep.simulations ctx)
      (Vc_exp.Sweep.cache_hits ctx);
    let kernels = run_bechamel () in
    write_sweep_json ~jobs:(Vc_exp.Sweep.jobs ctx) ~quick:(Vc_exp.Sweep.quick ctx)
      ~regen_seconds
      ~simulated:(Vc_exp.Sweep.simulations ctx)
      ~cache_hits:(Vc_exp.Sweep.cache_hits ctx)
      ~kernels ~telemetry:(telemetry_json ctx)
  with Vc_core.Vc_error.Error e ->
    Format.eprintf "bench: %s@." (Vc_core.Vc_error.to_string e);
    exit (Vc_core.Vc_error.exit_code e)
