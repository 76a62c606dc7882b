(* vcilk: command-line driver for the vectorcilk reproduction.

   Subcommands:
     list                        - benchmarks and machines
     run BENCH                   - run one benchmark under one strategy
     transform FILE.rtp          - validate a DSL program, report its
                                   termination certificate, and print its
                                   Fig. 7 transformation
     optimize FILE.rtp           - the scalar optimizer's output
     distribute FILE.rtp         - the loop-distributed, if-converted form
     interp FILE.rtp ARGS...     - run a DSL program sequentially
     table  {1|2|3}              - regenerate one paper table
     figure {9..17}              - regenerate one paper figure (17 is the
                                   lanes x domains hybrid-scheduler study)
     trace BENCH                 - per-level scheduler timeline
     profile BENCH               - cycle-attribution hotspots, folded
                                   stacks (flamegraph input), JSON
     plot BENCH                  - ASCII block-size sweep curves
     export DIR                  - all artifacts as CSV
     bench                       - per-benchmark summary metrics: the
                                   exact modeled ledger, or wall-clock
                                   throughput with --engine
     version                     - package version, git provenance, and
                                   per-machine SIMD widths
     verify                      - the paper's claims as checks
     chaos                       - fault-injection campaign: every
                                   benchmark must recover to exact
                                   fault-free results
     serve                       - fault-contained job daemon: JSON
                                   requests over Unix/TCP sockets with
                                   admission control, backpressure,
                                   per-request budgets, graceful drain
     loadgen                     - replay a weighted mix against serve
                                   and assert bit-equality vs batch
     all                         - every table, figure, and ablation

   Exit codes (defined once in Vc_error, listed in --help): 0 ok,
   1 detected failure, 2 budget exceeded; 124 usage,
   125 crash, 130/143 interrupted (after flushing partial artifacts).

   Sweep-driven subcommands (table, figure, plot, export, verify, all)
   take --jobs N (parallel worker domains, default: the recommended
   domain count) and --no-cache (skip the persistent .vc-cache run
   cache).  VCILK_LOG=debug|info enables engine logging on stderr.

   Supervised execution: run and verify take --deadline CYCLES,
   --wall-deadline SECONDS and --max-live-frames N (run also
   --max-tasks N); an exceeded budget terminates with a typed error and
   exit code 2 (0 ok, 1 failure).

   Execution engines: run, bench, verify, and chaos take
   --engine engine|blocked|compiled.  "engine" (the default) is the
   cost-model simulator; "blocked" and "compiled" are the wall-clock
   backends over the blocked IR (Backend) — bit-equal reducers and task
   counts, measured throughput instead of modeled cycles.  bench
   --compiled-json FILE writes an interpreted-vs-compiled throughput
   comparison.

   Intra-run parallelism: run and chaos take --domains N.  N = 1 (the
   default) is the single-context engine; N > 1 splits the run across
   real OCaml domains via the hybrid multicore x SIMD scheduler
   (Domain_sched) — reducer values and task counts stay bit-equal to
   --domains 1, modeled cycles come from the deterministic work-stealing
   schedule model.
   VC_FAULT_SEED / VC_FAULT_SITES / VC_FAULT_RATE arm deterministic
   fault injection in any subcommand (fault-armed runs never write the
   persistent cache); chaos arms it explicitly via --seed/--faults. *)

open Cmdliner
module Sweep = Vc_exp.Sweep

let machine_conv =
  let parse s =
    match Vc_mem.Machine.find s with
    | m -> Ok m
    | exception Not_found -> Error (`Msg (Printf.sprintf "unknown machine %S (e5|phi)" s))
  in
  let print fmt (m : Vc_mem.Machine.t) = Format.pp_print_string fmt m.Vc_mem.Machine.name in
  Arg.conv (parse, print)

(* Benchmarks are names, resolved late (after flag parsing) so the
   --workloads directories participate: built-in registry first, then a
   literal .rtp path, then NAME.rtp under the workload directories. *)
let bench_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH")

let workloads_flag =
  Arg.(value & opt_all string []
       & info [ "workloads" ] ~docv:"DIR"
           ~doc:
             "Extra directory of $(b,.rtp) workload files (repeatable). \
              $(b,examples/dsl) and $(b,test/corpus) are always searched \
              when resolving a benchmark name.")

let default_workload_dirs = [ "examples/dsl"; "test/corpus" ]

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use scaled-down workloads.")

let jobs_flag =
  Arg.(value
       & opt int (Vc_exp.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:
             "Worker domains for the experiment sweep (default: the \
              recommended domain count). 1 disables parallelism.")

let no_cache_flag =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Do not read or write the persistent $(b,.vc-cache) run cache.")

let deadline_flag =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"CYCLES"
           ~doc:
             "Modeled-cycle budget for engine runs. Exceeding it terminates \
              with a typed error and exit code 2. Ignored by the seq and \
              strawman strategies, which have no blocked scheduler.")

let wall_deadline_flag =
  Arg.(value & opt (some float) None
       & info [ "wall-deadline" ] ~docv:"SECONDS"
           ~doc:
             "Wall-clock budget, checked cooperatively at level boundaries. \
              Exceeding it terminates with exit code 2. Under $(b,--domains) \
              it is checked per context: the frontier expansion and each \
              chunk.")

let max_live_frames_flag =
  Arg.(value & opt (some int) None
       & info [ "max-live-frames" ] ~docv:"N"
           ~doc:
             "Live-frame budget (a user-level cap below the machine's space \
              limit). Exceeding it terminates with exit code 2. Under \
              $(b,--domains) it is checked per context: the frontier \
              expansion and each chunk.")

let domains_flag =
  Arg.(value & opt int 1
       & info [ "d"; "domains" ] ~docv:"N"
           ~doc:
             "Execute across N real OCaml domains via the hybrid multicore x \
              SIMD scheduler. 1 (the default) is the plain single-context \
              engine. Reducer values and task counts are bit-equal across \
              domain counts; modeled cycles use the deterministic \
              work-stealing schedule model.")

let max_tasks_flag =
  Arg.(value & opt (some int) None
       & info [ "max-tasks" ] ~docv:"N"
           ~doc:
             "Task budget per engine context (default 200M). Exceeding it \
              terminates with a typed error and exit code 2. Under \
              $(b,--domains) it is checked per context: the frontier \
              expansion and each chunk.")

(* --engine selects the execution-engine family.  "engine" is the
   cost-model simulator (modeled cycles); "blocked" and "compiled" are the
   wall-clock backends over the blocked IR — same Fig. 6 schedule, no cost
   model, real time. *)
let engine_flag =
  Arg.(value
       & opt (enum (List.map (fun e -> (Sweep.engine_name e, e)) Sweep.engines))
           Sweep.Model
       & info [ "e"; "engine" ] ~docv:"ENGINE"
           ~doc:
             "Execution engine: $(b,engine) (the cost-model simulator, \
              modeled cycles; the default), $(b,blocked) (wall-clock \
              closure-interpreter backend), or $(b,compiled) (wall-clock \
              compiled SoA backend). The wall-clock engines report measured \
              throughput and ignore the modeled-cycle $(b,--deadline).")

let wall_rate tasks wall = float_of_int tasks /. Float.max wall 1e-9

(* Uniform exit-code convention: 0 ok, 1 failure, 2 budget exceeded. *)
let die (e : Vc_core.Vc_error.t) : 'a =
  Format.eprintf "vcilk: %s@." (Vc_core.Vc_error.to_string e);
  exit (Vc_core.Vc_error.exit_code e)

let or_die f = try f () with Vc_core.Vc_error.Error e -> die e

let resolve_bench ~workloads name =
  match
    Vc_bench.Registry.resolve ~dirs:(workloads @ default_workload_dirs) name
  with
  | Ok e -> e
  | Error e -> die e

(* Every workload in the given directories, loaded; a directory that does
   not exist contributes nothing, a directory with a bad file is fatal. *)
let loaded_workloads dirs =
  List.concat_map
    (fun dir ->
      if Sys.file_exists dir && Sys.is_directory dir then
        match Vc_bench.Registry.load_dir dir with
        | Ok ls -> ls
        | Error e -> die e
      else [])
    dirs

let ctx_of ?(budgets = Vc_core.Supervisor.no_budgets) quick jobs no_cache =
  (* VC_FAULT_SEED arms fault injection in every sweep point; the sweep
     then refuses to write recovered (degraded-cost) runs to disk. *)
  Sweep.create ~quick ~jobs
    ~cache_dir:(if no_cache then None else Some ".vc-cache")
    ~budgets
    ~faults:(Vc_core.Fault.of_env ())
    ()

(* Long-running subcommands (bench, chaos, fuzz, loadgen) install
   SIGINT/SIGTERM handlers that flush partial artifacts — the persistent
   run cache and any open telemetry sinks — before exiting with the shell
   convention (130 = SIGINT, 143 = SIGTERM), so an interrupted campaign
   keeps what it already computed.  Distinct from the detected-failure
   exit taxonomy (0/1/2) and from serve, which installs its own
   handlers to drain gracefully and exit 0. *)
let install_signal_flush flush =
  let handle code =
    Sys.Signal_handle
      (fun _ ->
        (try flush () with _ -> ());
        Format.pp_print_flush Format.std_formatter ();
        Format.pp_print_flush Format.err_formatter ();
        Stdlib.exit code)
  in
  (try Sys.set_signal Sys.sigint (handle 130) with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (handle 143) with Invalid_argument _ -> ())

(* Flush the run cache and report what the sweep actually did; artifact
   text goes to stdout, so the stats line stays on stderr. *)
let finish ctx =
  Sweep.persist ctx;
  Format.eprintf "[sweep] %d simulated, %d disk-cache hits, jobs %d@."
    (Sweep.simulations ctx)
    (Sweep.cache_hits ctx) (Sweep.jobs ctx)

let list_cmd =
  let run workloads =
    Format.printf "@[<v>Benchmarks:@,";
    List.iter
      (fun (e : Vc_bench.Registry.entry) ->
        Format.printf "  %-12s %s@," e.Vc_bench.Registry.name
          e.Vc_bench.Registry.description)
      Vc_bench.Registry.all;
    (match loaded_workloads (workloads @ default_workload_dirs) with
    | [] -> ()
    | loaded ->
        Format.printf "@,Workloads (.rtp):@,";
        List.iter
          (fun (l : Vc_bench.Registry.loaded) ->
            Format.printf "  %-12s %s (%s)@,"
              l.Vc_bench.Registry.entry.Vc_bench.Registry.name
              l.Vc_bench.Registry.entry.Vc_bench.Registry.description
              l.Vc_bench.Registry.path)
          loaded);
    Format.printf "@,Machines:@,";
    List.iter (fun m -> Format.printf "  %a@," Vc_mem.Machine.pp m) Vc_mem.Machine.all;
    Format.printf "@]@."
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmarks, runtime-loaded workloads, and machines.")
    Term.(const run $ workloads_flag)

let run_cmd =
  let machine =
    Arg.(value
         & opt machine_conv Vc_mem.Machine.xeon_e5
         & info [ "m"; "machine" ] ~doc:"Target machine (e5|phi).")
  in
  let strategy =
    (* a typed enum, so an unknown strategy is a usage error from the
       argument parser instead of a raw Failure escaping main *)
    Arg.(value
         & opt (enum (List.map (fun s -> (Sweep.strategy_name s, s)) Sweep.strategies))
             Sweep.Reexp
         & info [ "s"; "strategy" ] ~doc:"seq|strawman|bfs|noreexp|reexp.")
  in
  let block =
    Arg.(value & opt int 4096
         & info [ "b"; "block" ] ~doc:"Hybrid max block size / re-expansion threshold.")
  in
  let run quick jobs no_cache deadline wall_deadline max_live_frames domains
      max_tasks engine workloads bench machine strategy block =
    or_die @@ fun () ->
    let domains = if domains = 1 then None else Some domains in
    let entry = resolve_bench ~workloads bench in
    let point = { (Sweep.point entry) with engine; machine; strategy; block; domains } in
    Result.iter_error
      (fun msg -> Format.eprintf "vcilk: %s@." msg; exit 1)
      (Sweep.validate point);
    let ctx = ctx_of quick jobs no_cache in
    if engine <> Sweep.Model && deadline <> None then
      Format.eprintf
        "vcilk: note: --deadline is modeled cycles; --engine %s ignores it \
         (use --wall-deadline)@."
        (Sweep.engine_name engine);
    let budgets = { Vc_core.Supervisor.deadline; wall_deadline; max_live_frames } in
    let faults = Vc_core.Fault.of_env () in
    let o =
      match
        Vc_core.Supervisor.run (fun telemetry ->
            Sweep.exec ctx ~telemetry ~faults ~budgets ?max_tasks point)
      with
      | Error e -> die e
      | Ok o -> o
    in
    if o.faults_seen > 0 then
      Format.eprintf "[supervisor] %d faults contained, %d fallbacks@."
        o.faults_seen o.fallbacks;
    let report =
      match o.value with
      | Sweep.Report (r, None) -> r
      | Sweep.Report (_, Some d) ->
          let open Vc_core.Domain_sched in
          Format.eprintf "[domains] %d domains, %d chunks (frontier %d at depth %d)@."
            d.domains d.chunks d.frontier d.frontier_depth;
          Format.eprintf
            "[domains] expansion %.3e + makespan %.3e of %.3e work cycles; \
             %d modeled steals (%d failed), %d observed@."
            d.expansion_cycles d.makespan_cycles d.work_cycles d.modeled_steals
            d.modeled_failed_steals d.observed_steals;
          d.report
      | Sweep.Wall r ->
          (* wall-clock backends: no machine model, no modeled cycles *)
          let open Vc_core.Backend in
          List.iter (fun (n, v) -> Format.printf "%s = %d@." n v) r.reducers;
          Format.printf
            "%d tasks (%d base), max depth %d, %d switches, %d re-expansions@." r.tasks
            r.base_tasks r.max_depth r.switches r.reexpansions;
          Format.printf "engine %s: wall %.6f s, %.3f M tasks/s@."
            (Sweep.engine_name engine) r.wall_seconds
            (wall_rate r.tasks r.wall_seconds /. 1e6);
          exit 0
    in
    Format.printf "%a@." Vc_core.Report.pp_summary report;
    if strategy <> Sweep.Seq && not report.Vc_core.Report.oom then
      Format.printf "modeled speedup over sequential: %.2f@."
        (Sweep.speedup ctx point.Sweep.entry machine report);
    finish ctx
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one benchmark under one execution strategy.")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ deadline_flag
          $ wall_deadline_flag $ max_live_frames_flag $ domains_flag
          $ max_tasks_flag $ engine_flag $ workloads_flag $ bench_arg $ machine
          $ strategy $ block)

let transform_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let program = Vc_lang.Parser.parse_file file in
    match Vc_lang.Validate.check program with
    | Error errors ->
        Format.eprintf "@[<v>validation failed:@,%a@]@."
          (Format.pp_print_list Format.pp_print_string)
          errors;
        exit 1
    | Ok info ->
        Format.printf "// source (%d spawn sites; %a)@.%a@.@."
          info.Vc_lang.Validate.num_spawns Vc_lang.Termination.pp_verdict
          (Vc_lang.Termination.check program) Vc_lang.Pp.pp_program program;
        Format.printf "// Fig. 7 transformation@.%a@." Vc_core.Blocked_ast.pp
          (Vc_core.Transform.transform program)
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Print a DSL program's Fig. 7 transformation.")
    Term.(const run $ file)

let optimize_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let program = Vc_lang.Parser.parse_file file in
    ignore (Vc_lang.Validate.check_exn program : Vc_lang.Validate.info);
    let optimized = Vc_lang.Optim.program program in
    Format.printf "// after constant folding, branch folding, and dead-local elimination@.%a@."
      Vc_lang.Pp.pp_program optimized
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the scalar optimizer on a DSL program and print the result.")
    Term.(const run $ file)

let distribute_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let program = Vc_lang.Parser.parse_file file in
    let t = Vc_core.Transform.transform program in
    Format.printf "%a@.@.%a@."
      Vc_core.Distribute.pp
      (Vc_core.Distribute.distribute t.Vc_core.Blocked_ast.bfs_method)
      Vc_core.Distribute.pp
      (Vc_core.Distribute.distribute t.Vc_core.Blocked_ast.blocked_method)
  in
  Cmd.v
    (Cmd.info "distribute"
       ~doc:"Print a DSL program's loop-distributed, if-converted dense-step form.")
    Term.(const run $ file)

let interp_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let args = Arg.(value & pos_right 0 int [] & info [] ~docv:"ARGS") in
  let run file args =
    let program = Vc_lang.Parser.parse_file file in
    let out = Vc_lang.Interp.run_validated program args in
    List.iter (fun (name, v) -> Format.printf "%s = %d@." name v) out.Vc_lang.Interp.reducers;
    Format.printf "(%a)@." Vc_lang.Profile.pp out.Vc_lang.Interp.profile
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Run a DSL program sequentially and print its reducers.")
    Term.(const run $ file $ args)

let table_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let run quick jobs no_cache n =
    let ctx = ctx_of quick jobs no_cache in
    let fmt = Format.std_formatter in
    (match n with
    | 1 -> Sweep.prewarm ~scope:`Seq_only ctx
    | 2 | 3 -> Sweep.prewarm ctx
    | _ -> ());
    (match n with
    | 1 -> Vc_exp.Tables.table1 ctx fmt
    | 2 -> Vc_exp.Tables.table2 ctx fmt
    | 3 -> Vc_exp.Tables.table3 ctx fmt
    | _ ->
        Format.eprintf "no such table: %d (1..3)@." n;
        exit 1);
    finish ctx
  in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate one paper table (1-3).")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ n)

let figure_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let run quick jobs no_cache n =
    let ctx = ctx_of quick jobs no_cache in
    let fmt = Format.std_formatter in
    (match n with
    | 9 | 17 -> Sweep.prewarm ~scope:`Seq_only ctx
    | 10 | 11 | 12 | 13 | 14 | 15 | 16 -> Sweep.prewarm ctx
    | _ -> ());
    (match n with
    | 9 -> Vc_exp.Figures.figure9 ctx fmt
    | 10 -> Vc_exp.Figures.figure10 ctx fmt
    | 11 -> Vc_exp.Figures.figure11 ctx fmt
    | 12 -> Vc_exp.Figures.figure12 ctx fmt
    | 13 -> Vc_exp.Figures.figure13 ctx fmt
    | 14 -> Vc_exp.Figures.figure14 ctx fmt
    | 15 -> Vc_exp.Figures.figure15 ctx fmt
    | 16 -> Vc_exp.Figures.figure16 ctx fmt
    | 17 -> Vc_exp.Figures.figure17 ctx fmt
    | _ ->
        Format.eprintf "no such figure: %d (9..17)@." n;
        exit 1);
    finish ctx
  in
  Cmd.v (Cmd.info "figure" ~doc:"Regenerate one paper figure (9-17).")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ n)

let trace_cmd =
  let machine =
    Arg.(value
         & opt machine_conv Vc_mem.Machine.xeon_e5
         & info [ "m"; "machine" ] ~doc:"Target machine (e5|phi).")
  in
  let block =
    Arg.(value & opt int 256
         & info [ "b"; "block" ] ~doc:"Hybrid max block size / re-expansion threshold.")
  in
  let limit =
    Arg.(value & opt int 40 & info [ "n"; "limit" ] ~doc:"Events to print.")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:
               "Chrome trace-event JSON output file (loadable in \
                chrome://tracing or Perfetto). Default: $(i,BENCH).trace.json; \
                pass $(b,--chrome -) to suppress the export.")
  in
  let jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Also stream every telemetry event as one JSON object per line into FILE.")
  in
  let run quick workloads bench machine block limit chrome jsonl =
    (* traced runs are never cached: the trace is a side effect of the
       simulation, so this command always simulates fresh *)
    let entry = resolve_bench ~workloads bench in
    let ctx = Sweep.create ~quick ~cache_dir:None () in
    let spec = Sweep.spec_of ctx entry in
    let tel = Vc_core.Telemetry.create () in
    (* every level, unbounded: the table and the plot cover the whole run *)
    let level_sink, levels = Vc_core.Telemetry.level_sink () in
    Vc_core.Telemetry.attach tel level_sink;
    let chrome_path =
      match chrome with
      | Some "-" -> None
      | Some path -> Some path
      | None -> Some (entry.Vc_bench.Registry.name ^ ".trace.json")
    in
    let open_sink make = function
      | None -> None
      | Some path ->
          let oc = open_out path in
          Vc_core.Telemetry.attach tel (make oc);
          Some (path, oc)
    in
    let chrome_out = open_sink Vc_core.Telemetry.chrome_sink chrome_path in
    let jsonl_out = open_sink Vc_core.Telemetry.jsonl_sink jsonl in
    let r =
      Vc_core.Engine.run ~telemetry:tel ~spec ~machine
        ~strategy:(Vc_core.Policy.Hybrid { max_block = block; reexpand = true })
        ()
    in
    (* Engine.run flushed the hub; close the files and report them. *)
    List.iter
      (fun out ->
        match out with
        | Some (path, oc) ->
            close_out oc;
            Format.eprintf "[trace] wrote %s@." path
        | None -> ())
      [ chrome_out; jsonl_out ];
    let levels = levels () in
    Format.printf "%a@.%a@." Vc_core.Report.pp_summary r
      (Vc_core.Telemetry.pp_levels ~limit) levels;
    (* Lane-occupancy timeline: every processed level as a point at its
       modeled start time, one series per scheduler phase. *)
    let width =
      Vc_simd.Isa.lanes machine.Vc_mem.Machine.isa
        (Vc_core.Schema.lane_kind spec.Vc_core.Spec.schema)
    in
    let series phase marker =
      {
        Vc_exp.Ascii_plot.label = Vc_core.Telemetry.phase_name phase;
        marker;
        points = Vc_core.Telemetry.occupancy_points ~width phase levels;
      }
    in
    Format.printf "@.lane occupancy over modeled time (width %d)@.@." width;
    Vc_exp.Ascii_plot.plot ~x_label:"kilocycles" ~y_label:"occupancy"
      [ series Vc_core.Telemetry.Bfs '.'; series Vc_core.Telemetry.Blocked 'o';
        series Vc_core.Telemetry.Cutoff 'x' ]
      Format.std_formatter;
    (* Summary telemetry now carried by the report itself. *)
    let hist = r.Vc_core.Report.occupancy_hist in
    let total = Array.fold_left ( + ) 0 hist in
    if total > 0 then begin
      Format.printf "@.occupancy histogram (%d levels)@." total;
      Array.iteri
        (fun i n ->
          Format.printf "  %3d-%3d%% %-40s %d@." (i * 10)
            (((i + 1) * 10) - if i = 9 then 0 else 1)
            (String.make (40 * n / total) '#')
            n)
        hist
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one run: per-level scheduler timeline, ASCII lane-occupancy \
          plot, and Chrome trace-event JSON export.")
    Term.(const run $ quick_flag $ workloads_flag $ bench_arg $ machine $ block
          $ limit $ chrome $ jsonl)

let profile_cmd =
  let machine =
    Arg.(value
         & opt machine_conv Vc_mem.Machine.xeon_e5
         & info [ "m"; "machine" ] ~doc:"Target machine (e5|phi).")
  in
  let block =
    Arg.(value & opt int 256
         & info [ "b"; "block" ] ~doc:"Hybrid max block size / re-expansion threshold.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Hotspot rows to print.")
  in
  let folded =
    Arg.(value
         & opt ~vopt:(Some "-") (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:
               "Write folded stacks (flamegraph.pl / speedscope / inferno \
                input) to FILE; $(b,--folded) alone or $(b,--folded -) \
                prints them to stdout.")
  in
  let json =
    Arg.(value
         & opt ~vopt:(Some "-") (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:
               "Write the attribution frames as one JSON object to FILE \
                ($(b,-) = stdout).")
  in
  let run quick workloads bench machine block top folded json =
    (* Profiled runs always simulate fresh: attribution is a side effect
       of the simulation, exactly like trace. *)
    let entry = resolve_bench ~workloads bench in
    let ctx = Sweep.create ~quick ~cache_dir:None () in
    let spec = Sweep.spec_of ctx entry in
    let tel = Vc_core.Telemetry.create () in
    let profile = Vc_core.Profile.create () in
    Vc_core.Profile.attach profile tel;
    let r =
      Vc_core.Engine.run ~telemetry:tel ~spec ~machine
        ~strategy:(Vc_core.Policy.Hybrid { max_block = block; reexpand = true })
        ()
    in
    let emit what = function
      | None -> ()
      | Some "-" -> print_string what
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc what);
          Format.eprintf "[profile] wrote %s@." path
    in
    let quiet = folded = Some "-" || json = Some "-" in
    if not quiet then begin
      Format.printf "%a@.@." Vc_core.Report.pp_summary r;
      Format.printf "%a" (Vc_core.Profile.pp_hotspots ~top) profile
    end;
    emit (Vc_core.Profile.folded profile) folded;
    emit (Vc_core.Profile.json_string profile ^ "\n") json
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attribute one run's modeled cycles to benchmark / phase / \
          spawn-site frames: hotspot table, folded stacks, JSON. The \
          attribution reconciles exactly with the report's cycle total.")
    Term.(const run $ quick_flag $ workloads_flag $ bench_arg $ machine $ block
          $ top $ folded $ json)

let bench_cmd =
  let block =
    Arg.(value & opt int Vc_exp.Baseline.default_block
         & info [ "b"; "block" ]
             ~doc:"Hybrid block size used for every collected point.")
  in
  let compiled_json =
    Arg.(value & opt (some string) None
         & info [ "compiled-json" ] ~docv:"FILE"
             ~doc:
               "Also run every benchmark on both wall-clock engines \
                (blocked and compiled) and write the throughput comparison \
                as JSON to FILE ($(b,-) = stdout). Wall numbers are \
                host-local and informational.")
  in
  (* One wall-clock backend point per benchmark at the bench block size. *)
  let backend_table ctx ~entries ~engine ~block =
    Format.printf "%-12s %12s %12s %7s %6s %6s %10s %10s@." "BENCH" "TASKS"
      "BASE" "DEPTH" "SW" "RE" "WALL_S" "MTASK/S";
    List.iter
      (fun (e : Vc_bench.Registry.entry) ->
        let r = Sweep.backend_run ctx e ~engine ~block in
        let open Vc_core.Backend in
        Format.printf "%-12s %12d %12d %7d %6d %6d %10.6f %10.2f@."
          e.Vc_bench.Registry.name r.tasks r.base_tasks r.max_depth r.switches
          r.reexpansions r.wall_seconds
          (wall_rate r.tasks r.wall_seconds /. 1e6))
      entries
  in
  let write_comparison ctx ~entries ~block path =
    (* Best-of-3 per engine: the comparison is a measurement artifact, so
       it must not inherit the sweep memo's single (possibly cold) run —
       one GC-unlucky shot would record a bogus ratio. *)
    let measure e engine =
      let point = { (Sweep.point e) with Sweep.engine; block } in
      List.fold_left
        (fun (_, best) _ ->
          match Sweep.exec ctx point with
          | Sweep.Wall r -> (r.Vc_core.Backend.tasks, Float.min best r.wall_seconds)
          | Sweep.Report _ -> assert false)
        (0, infinity) [ 1; 2; 3 ]
    in
    let benches =
      List.map
        (fun (e : Vc_bench.Registry.entry) ->
          let tasks, i_wall = measure e Sweep.Blocked in
          let c_tasks, c_wall = measure e Sweep.Compiled in
          let i_rate = wall_rate tasks i_wall and c_rate = wall_rate c_tasks c_wall in
          Vc_exp.Jsonx.Obj
            [
              ("bench", String e.Vc_bench.Registry.name);
              ("tasks", Int tasks);
              ("blocked_wall_seconds", Float i_wall);
              ("blocked_tasks_per_sec", Float i_rate);
              ("compiled_wall_seconds", Float c_wall);
              ("compiled_tasks_per_sec", Float c_rate);
              ("compiled_speedup", Float (c_rate /. Float.max i_rate 1e-9));
            ])
        entries
    in
    let j =
      Vc_exp.Jsonx.Obj
        [
          ("block", Int block);
          ("quick", Bool (Sweep.quick ctx));
          ("benchmarks", List benches);
        ]
    in
    let text = Vc_exp.Jsonx.to_pretty_string j ^ "\n" in
    match path with
    | "-" -> print_string text
    | path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text);
        Format.eprintf "[bench] wrote %s@." path
  in
  let run quick jobs no_cache workloads block engine compiled_json =
    or_die @@ fun () ->
    (* --workloads entries join the wall-clock backend table and the
       comparison JSON; the modeled ledger keeps the built-in registry. *)
    let entries =
      Vc_bench.Registry.all
      @ List.map
          (fun (l : Vc_bench.Registry.loaded) -> l.Vc_bench.Registry.entry)
          (loaded_workloads (workloads @ default_workload_dirs))
    in
    Result.iter_error
      (fun msg -> Format.eprintf "vcilk: %s@." msg; exit 1)
      (Sweep.validate { (Sweep.point (List.hd entries)) with engine; block });
    let ctx = ctx_of quick jobs no_cache in
    install_signal_flush (fun () -> Sweep.persist ctx);
    if engine = Sweep.Model then
      Format.printf "%a" Vc_exp.Baseline.pp (Vc_exp.Baseline.collect ~block ctx)
    else backend_table ctx ~entries ~engine:(Sweep.engine_name engine) ~block;
    Option.iter (write_comparison ctx ~entries ~block) compiled_json;
    finish ctx
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Print per-benchmark summary metrics. On the cost model (the \
          default engine): modeled cycles, speedup, 2-domain speedup, lane \
          occupancy, compaction passes, space peak and the occupancy \
          histogram at full precision, the exact ledger that \
          test/golden/baseline.txt pins. On a wall-clock engine: one \
          measured throughput row per benchmark.")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ workloads_flag
          $ block $ engine_flag $ compiled_json)

let version_cmd =
  let run () =
    Format.printf "vcilk %s@." (Vc_core.Version.describe ());
    (match Vc_core.Version.git_describe () with
    | Some g -> Format.printf "git:  %s@." g
    | None -> Format.printf "git:  (not a checkout)@.");
    Format.printf "@.simulated platforms:@.";
    List.iter
      (fun (m : Vc_mem.Machine.t) ->
        let isa = m.Vc_mem.Machine.isa in
        Format.printf "  %-4s %-9s %4d-bit vectors, lanes:" m.Vc_mem.Machine.name
          isa.Vc_simd.Isa.name isa.Vc_simd.Isa.vector_bits;
        List.iter
          (fun kind ->
            Format.printf " %s=%d"
              (Vc_simd.Lane.to_string kind)
              (Vc_simd.Isa.lanes isa kind))
          Vc_simd.Lane.all;
        Format.printf "@.")
      Vc_mem.Machine.all
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the package version, git provenance, and each simulated \
          machine's ISA and SIMD widths.")
    Term.(const run $ const ())

let plot_cmd =
  let machine =
    Arg.(value
         & opt machine_conv Vc_mem.Machine.xeon_e5
         & info [ "m"; "machine" ] ~doc:"Target machine (e5|phi).")
  in
  let what =
    (* typed enum: an unknown metric is a usage error, not a Failure *)
    Arg.(value
         & opt
             (enum
                [ ("speedup", `Speedup); ("utilization", `Utilization);
                  ("miss", `Miss) ])
             `Speedup
         & info [ "w"; "what" ] ~doc:"speedup|utilization|miss.")
  in
  let run quick jobs no_cache workloads bench machine what =
    let entry = resolve_bench ~workloads bench in
    let ctx = ctx_of quick jobs no_cache in
    let log2 b = log (float_of_int b) /. log 2.0 in
    let value (r : Vc_core.Report.t) =
      match what with
      | `Speedup -> Some (Sweep.speedup ctx entry machine r)
      | `Utilization -> Some r.Vc_core.Report.utilization
      | `Miss -> List.assoc_opt "L1d" r.Vc_core.Report.miss_rates
    in
    let series reexpand marker =
      {
        Vc_exp.Ascii_plot.label =
          (if reexpand then "with re-expansion" else "no re-expansion");
        marker;
        points =
          List.filter_map
            (fun block ->
              let r = Sweep.hybrid ctx entry machine ~reexpand ~block in
              if r.Vc_core.Report.oom then None
              else Option.map (fun v -> (log2 block, v)) (value r))
            (Sweep.blocks_of ctx entry);
      }
    in
    let what_name =
      match what with
      | `Speedup -> "speedup"
      | `Utilization -> "utilization"
      | `Miss -> "miss"
    in
    Format.printf "%s of %s on %s vs log2(block size)@.@." what_name
      entry.Vc_bench.Registry.name machine.Vc_mem.Machine.name;
    Vc_exp.Ascii_plot.plot ~x_label:"log2(block)" [ series false '.'; series true 'o' ]
      Format.std_formatter;
    finish ctx
  in
  Cmd.v
    (Cmd.info "plot" ~doc:"ASCII plot of a block-size sweep (Figs. 10-14).")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ workloads_flag
          $ bench_arg $ machine $ what)

let export_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let run quick jobs no_cache dir =
    let ctx = ctx_of quick jobs no_cache in
    Sweep.prewarm ctx;
    let files = Vc_exp.Csv.export_all ctx ~dir in
    Format.printf "wrote %d CSV files to %s:@." (List.length files) dir;
    List.iter (fun f -> Format.printf "  %s@." f) files;
    finish ctx
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export every table and figure as CSV files into DIR.")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ dir)

let verify_cmd =
  let run quick jobs no_cache workloads deadline wall_deadline max_live_frames
      engine =
    or_die @@ fun () ->
    let budgets = { Vc_core.Supervisor.deadline; wall_deadline; max_live_frames } in
    let ctx = ctx_of ~budgets quick jobs no_cache in
    Sweep.prewarm ctx;
    let verdicts = Vc_exp.Claims.all ctx in
    (* --engine blocked|compiled appends the wall-clock backend's
       equivalence claims to the standard set. *)
    let verdicts =
      match engine with
      | Sweep.Model -> verdicts
      | e -> verdicts @ Vc_exp.Claims.backend ctx ~engine:(Sweep.engine_name e)
    in
    (* --workloads appends one differential-replay verdict per loaded
       .rtp workload: oracle, engine, and both wall-clock backends agree
       with the spec block's pinned values. *)
    let verdicts =
      verdicts
      @ List.map
          (fun (l : Vc_bench.Registry.loaded) ->
            let name = l.Vc_bench.Registry.entry.Vc_bench.Registry.name in
            let claim =
              Printf.sprintf
                "workload %s replays identically across all backends" name
            in
            match Vc_fuzz.Corpus.replay ~quick:(Sweep.quick ctx) l with
            | Ok checks ->
                { Vc_exp.Claims.claim; holds = true;
                  evidence = Printf.sprintf "%d comparisons" checks }
            | Error msg -> { Vc_exp.Claims.claim; holds = false; evidence = msg })
          (loaded_workloads (workloads @ default_workload_dirs))
    in
    Vc_exp.Claims.pp Format.std_formatter verdicts;
    finish ctx;
    exit
      (if Vc_exp.Claims.failures verdicts = 0 then Vc_core.Vc_error.exit_ok
       else Vc_core.Vc_error.exit_failure)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check the paper's qualitative claims against fresh measurements.")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag $ workloads_flag
          $ deadline_flag $ wall_deadline_flag $ max_live_frames_flag
          $ engine_flag)

let chaos_cmd =
  let sites_conv =
    let parse s =
      match Vc_core.Fault.parse_sites s with
      | Ok sites -> Ok sites
      | Error msg -> Error (`Msg msg)
    in
    let print fmt sites =
      Format.pp_print_string fmt
        (String.concat "," (List.map Vc_core.Fault.site_name sites))
    in
    Arg.conv (parse, print)
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed.") in
  let sites =
    Arg.(value
         & opt sites_conv Vc_core.Fault.all_sites
         & info [ "faults" ] ~docv:"SITES"
             ~doc:
               "Comma-separated injection sites: compact, convert, alloc, cache \
                ($(b,all) or empty = every site).")
  in
  let rate =
    Arg.(value & opt float 0.25
         & info [ "rate" ] ~docv:"R" ~doc:"Fraction of instrumented calls that fault.")
  in
  let block =
    Arg.(value & opt int 256
         & info [ "b"; "block" ]
             ~doc:"Hybrid max block size (small blocks exercise more fault sites).")
  in
  let machine =
    Arg.(value
         & opt machine_conv Vc_mem.Machine.xeon_e5
         & info [ "m"; "machine" ] ~doc:"Target machine (e5|phi).")
  in
  let run quick jobs workloads seed sites rate block machine domains engine =
    or_die @@ fun () ->
    (* --workloads entries join the chaos campaign like built-ins *)
    let all_entries =
      Vc_bench.Registry.all
      @ List.map
          (fun (l : Vc_bench.Registry.loaded) -> l.Vc_bench.Registry.entry)
          (loaded_workloads (workloads @ default_workload_dirs))
    in
    (* Chaos runs are recovered-but-degraded, so they never touch the
       persistent cache; every reference and faulted run is fresh. *)
    let ctx = Sweep.create ~quick ~jobs ~cache_dir:None () in
    (* nothing persists from a chaos ctx; the handler still flushes the
       partial campaign output before exiting 130/143 *)
    install_signal_flush (fun () -> Sweep.persist ctx);
    Format.printf
      "chaos: engine %s, seed %d, rate %.2f, sites %s, block %d, %d domain%s, \
       %s workloads@."
      (Sweep.engine_name engine) seed rate
      (String.concat "," (List.map Vc_core.Fault.site_name sites))
      block domains
      (if domains = 1 then "" else "s")
      (if Sweep.quick ctx then "quick" else "full");
    (* Campaign: for every benchmark, a supervised run under the fault
       plan must reproduce a fault-free run exactly.  The engine re-runs a
       quarantined block on the scalar path, which charges cycles, so it
       must match the single-context run's reducers and task counts (with
       --domains > 1 across the chunked runs; fault plans are split per
       chunk).  The backends re-run a tripped level with its fault site
       disarmed, so they must match the same point's fault-free run on
       every result field but wall time. *)
    let project ~faults point telemetry =
      match Sweep.exec ctx ~telemetry ~faults point with
      | Sweep.Wall r -> Either.Right r
      | res ->
          let c = Sweep.counts res in
          Either.Left (c.reducers, c.tasks, c.base_tasks)
    in
    let domains = if domains = 1 then None else Some domains in
    let entries = Array.of_list all_entries in
    let results = Array.make (Array.length entries) None in
    let check_bench (entry : Vc_bench.Registry.entry) =
      let name = entry.Vc_bench.Registry.name in
      let point = { (Sweep.point entry) with Sweep.engine; machine; block; domains } in
      let reference =
        project ~faults:Vc_core.Fault.none
          (if engine = Sweep.Model then { point with domains = None } else point)
          (Vc_core.Telemetry.create ())
      in
      let plan = Vc_core.Fault.make ~rate ~seed ~sites () in
      match Vc_core.Supervisor.run (project ~faults:plan point) with
      | Error e -> (name, false, Vc_core.Vc_error.to_string e, 0)
      | Ok o ->
          let detail =
            Printf.sprintf "%d faults, %d fallbacks" o.faults_seen o.fallbacks
          in
          let same = Either.equal ~left:( = ) ~right:Vc_core.Backend.equal in
          (name, same o.value reference, detail, o.faults_seen)
    in
    Vc_exp.Pool.run ~jobs:(Sweep.jobs ctx)
      (Array.to_list
         (Array.mapi (fun i e () -> results.(i) <- Some (check_bench e)) entries));
    let failures = ref 0 in
    let total_faults = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some (name, ok, detail, faults) ->
            total_faults := !total_faults + faults;
            if not ok then incr failures;
            Format.printf "  %-10s %-4s %s@." name (if ok then "ok" else "FAIL") detail)
      results;
    (* The engine never converts layouts, so the convert site gets a
       dedicated AoS->SoA->AoS round trip that must be the identity. *)
    if List.mem Vc_core.Fault.Convert sites then begin
      let plan = Vc_core.Fault.make ~rate ~seed ~sites:[ Vc_core.Fault.Convert ] () in
      let isa = machine.Vc_mem.Machine.isa in
      let vm = Vc_simd.Vm.create isa in
      let addr = Vc_core.Addr.create () in
      let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "x"; "y"; "z" ] in
      let ok = ref true in
      for round = 1 to 8 do
        let frames =
          Array.init 257 (fun i -> [| i; i * round; (i * i) land 0xffff |])
        in
        let blk =
          Vc_core.Soa.aos_to_soa ~faults:plan ~vm ~addr ~schema ~isa
            ~aos_base:(0x100000 * round) ~frames ()
        in
        let back = Vc_core.Soa.soa_to_aos ~faults:plan ~vm ~aos_base:(0x100000 * round) blk in
        if back <> frames then ok := false
      done;
      let fired = Vc_core.Fault.total_fired plan in
      total_faults := !total_faults + fired;
      let ok = !ok in
      if not ok then incr failures;
      Format.printf "  %-10s %-4s %d faults, scalar-copy fallback@." "soa" (if ok then "ok" else "FAIL") fired
    end;
    (* Cache site: repeated add/persist rounds under injected I/O faults
       in a scratch directory.  Injected persist faults retry (up to 3
       attempts); a round that exhausts the retries surfaces the typed
       error, and — crash safety — must leave the previous round's file
       intact: the final fault-free reload must hold every key through the
       last successful persist. *)
    if List.mem Vc_core.Fault.Cache sites then begin
      let plan = Vc_core.Fault.make ~rate ~seed ~sites:[ Vc_core.Fault.Cache ] () in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "vcilk-chaos-%d" (Unix.getpid ()))
      in
      let t = Vc_exp.Run_cache.load ~faults:plan ~dir () in
      let spec = Sweep.spec_of ctx entries.(0) in
      let report = Vc_core.Seq_exec.run ~spec ~machine () in
      let rounds = 6 in
      let last_ok = ref 0 in
      let gave_up = ref 0 in
      for r = 1 to rounds do
        Vc_exp.Run_cache.add t (Printf.sprintf "chaos-%d" r) report;
        match Vc_exp.Run_cache.persist ~faults:plan t with
        | () -> last_ok := r
        | exception Vc_core.Vc_error.Error e when not (Vc_core.Vc_error.is_budget e) ->
            incr gave_up
      done;
      let fired = Vc_core.Fault.total_fired plan in
      total_faults := !total_faults + fired;
      let t2 = Vc_exp.Run_cache.load ~dir () in
      let ok = ref true in
      for r = 1 to !last_ok do
        match Vc_exp.Run_cache.find t2 (Printf.sprintf "chaos-%d" r) with
        | Some r' when Vc_core.Report.equal report r' -> ()
        | _ -> ok := false
      done;
      if not !ok then incr failures;
      Format.printf
        "  %-10s %-4s %d faults, %d/%d persists landed (%d gave up), crash-safe file@."
        "cache"
        (if !ok then "ok" else "FAIL")
        fired !last_ok rounds !gave_up;
      (try Sys.remove (Filename.concat dir "runs.json") with Sys_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
    end;
    Format.printf "chaos: %d checks, %d failed, %d faults injected@."
      (Array.length entries
      + (if List.mem Vc_core.Fault.Convert sites then 1 else 0)
      + if List.mem Vc_core.Fault.Cache sites then 1 else 0)
      !failures !total_faults;
    exit
      (if !failures = 0 then Vc_core.Vc_error.exit_ok
       else Vc_core.Vc_error.exit_failure)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault-injection campaign: every benchmark runs under \
          an armed fault plan and must recover to exact fault-free results.")
    Term.(const run $ quick_flag $ jobs_flag $ workloads_flag $ seed $ sites
          $ rate $ block $ machine $ domains_flag $ engine_flag)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Generator stream seed.")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"K" ~doc:"Cases to generate and check.")
  in
  let minutes =
    Arg.(value & opt (some float) None
         & info [ "minutes" ] ~docv:"M"
             ~doc:"Stop generating after M minutes even if --count is not reached.")
  in
  let out =
    Arg.(value & opt string "test/corpus"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory the shrunk reproducer .rtp is written into.")
  in
  let plant =
    let plant_conv =
      let parse s =
        match Vc_fuzz.Diff.plant_of_string s with
        | Some p -> Ok p
        | None -> Error (`Msg (Printf.sprintf "unknown plant %S (shl-trunc|spawn-skew)" s))
      in
      let print fmt p = Format.pp_print_string fmt (Vc_fuzz.Diff.plant_name p) in
      Arg.conv (parse, print)
    in
    Arg.(value & opt (some plant_conv) None
         & info [ "plant" ] ~docv:"BUG"
             ~doc:
               "Arm a deliberate codegen bug in the compiled backend \
                ($(b,shl-trunc)|$(b,spawn-skew)): the mutation smoke test. \
                The run must then diverge, shrink, and exit 1.")
  in
  let replay =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:
               "Instead of generating, replay every committed .rtp workload \
                (test/corpus, examples/dsl, and any --workloads directory) \
                through oracle, engine, and both wall-clock backends.")
  in
  let run quick workloads seed count minutes out plant replay =
    or_die @@ fun () ->
    install_signal_flush (fun () -> ());
    if replay then begin
      let loaded = loaded_workloads (workloads @ default_workload_dirs) in
      let failures = ref 0 in
      List.iter
        (fun (l : Vc_bench.Registry.loaded) ->
          let name = l.Vc_bench.Registry.entry.Vc_bench.Registry.name in
          match Vc_fuzz.Corpus.replay ~quick l with
          | Ok checks -> Format.printf "  %-24s ok (%d comparisons)@." name checks
          | Error msg ->
              incr failures;
              Format.printf "  %-24s FAIL %s@." name msg)
        loaded;
      Format.printf "replay: %d workloads, %d failed@." (List.length loaded)
        !failures;
      exit
      (if !failures = 0 then Vc_core.Vc_error.exit_ok
       else Vc_core.Vc_error.exit_failure)
    end;
    let deadline =
      Option.map (fun m -> Unix.gettimeofday () +. (m *. 60.0)) minutes
    in
    let expired () =
      match deadline with
      | Some t -> Unix.gettimeofday () > t
      | None -> false
    in
    let checks = ref 0 in
    let skipped = ref 0 in
    let rec loop i =
      if i >= count || expired () then None
      else
        let p, args = Vc_fuzz.Gen.case ~seed ~index:i () in
        match Vc_fuzz.Diff.check ?plant p args with
        | Vc_fuzz.Diff.Agree { checks = c } ->
            checks := !checks + c;
            loop (i + 1)
        | Vc_fuzz.Diff.Skip _ ->
            incr skipped;
            loop (i + 1)
        | Vc_fuzz.Diff.Diverge { stage; detail } -> Some (i, p, args, stage, detail)
    in
    match loop 0 with
    | None ->
        Format.printf
          "fuzz: seed %d, %d cases (%d skipped), %d comparisons, no divergence@."
          seed count !skipped !checks;
        exit 0
    | Some (index, p, args, stage, detail) ->
        Format.eprintf "fuzz: seed %d case %d diverged at %s: %s@." seed index
          stage detail;
        let keep = Vc_fuzz.Diff.failing ?plant in
        let p', args' = Vc_fuzz.Shrink.minimize ~keep p args in
        Format.eprintf "fuzz: shrunk %d -> %d AST nodes@." (Vc_fuzz.Gen.size p)
          (Vc_fuzz.Gen.size p');
        let name = Printf.sprintf "fuzz-s%d-%d" seed index in
        let provenance =
          [
            Printf.sprintf "fuzz reproducer: seed %d, case %d" seed index;
            Printf.sprintf "diverged at %s: %s" stage detail;
          ]
          @
          match plant with
          | None -> []
          | Some pl ->
              [ Printf.sprintf "planted bug: %s (mutation smoke test)"
                  (Vc_fuzz.Diff.plant_name pl) ]
        in
        (match Vc_fuzz.Corpus.write ~dir:out ~name ~provenance p' args' with
        | Ok path -> Format.eprintf "fuzz: wrote reproducer %s@." path
        | Error e ->
            Format.eprintf "fuzz: could not write reproducer: %s@."
              (Vc_core.Vc_error.to_string e));
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded well-typed terminating DSL \
          programs, run each through interpreter, cost-model engine, blocked \
          and compiled backends, the domain scheduler, and fault-armed \
          recovery, and on any divergence shrink to a minimal committed \
          reproducer (exit 1).")
    Term.(const run $ quick_flag $ workloads_flag $ seed $ count $ minutes
          $ out $ plant $ replay)

let serve_cmd =
  let socket =
    Arg.(value & opt string ".vcilk.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:
               "Unix-domain listen socket (a stale socket file is replaced). \
                Pass $(b,--socket -) to disable and listen on TCP only.")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:
               "Also listen on loopback TCP. $(b,0) picks an ephemeral port; \
                the bound port is printed on startup.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Persistent worker domains executing admitted jobs.")
  in
  let max_queue =
    Arg.(value & opt int 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:
               "Admission-control bound: requests beyond N queued jobs are \
                rejected with an $(b,overloaded) response instead of queued.")
  in
  let max_frame =
    Arg.(value & opt int 65536
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:
               "Request frame size limit; an oversized frame gets a \
                $(b,bad_request) response and closes that connection.")
  in
  let read_timeout =
    Arg.(value & opt float 30.0
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Idle connections are closed after this long without a frame.")
  in
  let jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:
               "Stream per-request telemetry into FILE, one JSON object per \
                line, each tagged with the request's trace id.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:
               "Log any request whose wall time reaches MS milliseconds, \
                with its full queue_wait/exec/serialize phase breakdown.")
  in
  let run quick no_cache workloads socket tcp workers max_queue max_frame
      read_timeout deadline wall_deadline max_live_frames jsonl slow_ms =
    or_die @@ fun () ->
    let socket_path = if socket = "-" then None else Some socket in
    let telemetry = Option.map open_out jsonl in
    let cfg =
      {
        Vc_serve.Server.default_config with
        socket_path;
        tcp_port = tcp;
        workers;
        max_queue;
        max_frame;
        read_timeout;
        slow_ms;
        quick;
        cache_dir = (if no_cache then None else Some ".vc-cache");
        workload_dirs = workloads @ default_workload_dirs;
        ceiling = { Vc_core.Supervisor.deadline; wall_deadline; max_live_frames };
        faults = Vc_core.Fault.of_env ();
        telemetry;
      }
    in
    (* the daemon's warnings (slow requests, crashed jobs) must reach
       stderr even when VCILK_LOG is unset; batch commands stay silent *)
    if Sys.getenv_opt "VCILK_LOG" = None then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Warning)
    end;
    match Vc_serve.Server.start cfg with
    | Error e -> die e
    | Ok srv ->
        Format.printf "[serve] listening on %s@."
          (Vc_serve.Server.endpoints srv);
        Format.pp_print_flush Format.std_formatter ();
        (* SIGTERM/SIGINT request a graceful drain: stop accepting, finish
           in-flight jobs, flush the run cache and telemetry, exit 0. *)
        let stop_requested = Atomic.make false in
        let request _ = Atomic.set stop_requested true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle request);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
        while not (Atomic.get stop_requested) do
          try Unix.sleepf 0.2
          with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Format.eprintf "[serve] draining@.";
        Vc_serve.Server.stop srv;
        Option.iter close_out telemetry;
        Format.eprintf "[serve] %s@." (Vc_serve.Server.stats_line srv);
        exit Vc_core.Vc_error.exit_ok
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-contained job daemon: newline-delimited JSON \
          requests over a Unix (and optionally loopback-TCP) socket, \
          executed on persistent worker domains with a warm run cache. \
          Bounded-queue admission control, per-request budget ceilings, \
          typed protocol errors, per-request trace ids, and a graceful \
          SIGTERM drain (exit 0). VC_FAULT_SEED arms chaos mode: injected \
          faults recover to bit-equal results.")
    Term.(const run $ quick_flag $ no_cache_flag $ workloads_flag $ socket
          $ tcp $ workers $ max_queue $ max_frame $ read_timeout
          $ deadline_flag $ wall_deadline_flag $ max_live_frames_flag $ jsonl
          $ slow_ms)

let loadgen_cmd =
  let socket =
    Arg.(value & opt string ".vcilk.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket to dial.")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Dial loopback TCP instead of the Unix socket.")
  in
  let rps =
    Arg.(value & opt float 10.0
         & info [ "rps" ] ~docv:"N"
             ~doc:
               "Open-loop request rate: request k is sent at k/N seconds \
                regardless of responses, so rates past capacity build real \
                queue depth.")
  in
  let duration =
    Arg.(value & opt float 5.0
         & info [ "duration" ] ~docv:"S" ~doc:"Send window, seconds.")
  in
  let mix =
    Arg.(value & opt string "fib:4,uts:1"
         & info [ "mix" ] ~docv:"MIX"
             ~doc:
               "Weighted benchmark mix, e.g. $(b,fib:4,uts:1) (weights \
                default to 1).")
  in
  let deadline_frac =
    Arg.(value & opt (some float) None
         & info [ "deadline-frac" ] ~docv:"F"
             ~doc:
               "Attach a modeled-cycle deadline of F x the benchmark's \
                reference cycles to every engine request; F < 1 makes \
                $(b,budget_exceeded) responses expected outcomes.")
  in
  let connections =
    Arg.(value & opt int 4
         & info [ "connections" ] ~docv:"N" ~doc:"Concurrent client sockets.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"Mix-selection stream seed.")
  in
  let delay_ms =
    Arg.(value & opt int 0
         & info [ "delay-ms" ] ~docv:"MS"
             ~doc:
               "Ask the daemon to sleep MS per request before executing \
                (server-side think time: the backpressure lever).")
  in
  let block =
    Arg.(value & opt int 4096
         & info [ "b"; "block" ] ~doc:"Hybrid block size for every request.")
  in
  let grace =
    Arg.(value & opt float 30.0
         & info [ "grace" ] ~docv:"S"
             ~doc:
               "After the send window closes, wait this long for outstanding \
                replies before counting them lost.")
  in
  let run quick workloads socket tcp rps duration mix_str engine deadline_frac
      connections seed delay_ms block grace =
    or_die @@ fun () ->
    install_signal_flush (fun () -> ());
    let mix =
      match Vc_serve.Loadgen.parse_mix mix_str with
      | Ok m -> m
      | Error msg ->
          Format.eprintf "vcilk: bad --mix: %s@." msg;
          exit Vc_core.Vc_error.exit_failure
    in
    let connect () =
      match tcp with
      | Some port ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          fd
      | None ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          fd
    in
    match
      Vc_serve.Loadgen.run ~connect ~rps ~duration ~mix
        ~engine:(Sweep.engine_name engine) ~block ?deadline_frac ~delay_ms
        ~connections ~seed ~grace
        ~workload_dirs:(workloads @ default_workload_dirs)
        ~quick ()
    with
    | Error e -> die e
    | Ok s ->
        Format.printf "%a@." Vc_serve.Loadgen.pp_summary s;
        (match s.Vc_serve.Loadgen.stats_line with
        | Some line -> Format.printf "%s@." line
        | None -> Format.printf "stats unavailable@.");
        List.iteri
          (fun i (id, detail) ->
            if i < 10 then Format.eprintf "  divergence %s: %s@." id detail)
          s.Vc_serve.Loadgen.divergences;
        exit
          (if Vc_serve.Loadgen.passed s then Vc_core.Vc_error.exit_ok
           else Vc_core.Vc_error.exit_failure)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a weighted benchmark mix against a running vcilk serve \
          daemon at a fixed request rate, then assert every ok response is \
          bit-equal to the batch reference (exit 1 on divergence or lost \
          replies; overload and budget rejections are expected outcomes \
          under deliberate pressure).")
    Term.(const run $ quick_flag $ workloads_flag $ socket $ tcp $ rps
          $ duration $ mix $ engine_flag $ deadline_frac $ connections $ seed
          $ delay_ms $ block $ grace)

(* ------------------------------------------------------------------ top *)

(* A terminal dashboard over the daemon's own observability endpoints:
   the key=value [/stats] line (windowed view) and the Prometheus
   [/metrics] body (lifetime histograms and the breakdown counters).
   Everything displayed is recomputed from the wire text — [top] has no
   privileged view, so whatever it shows, a real scraper sees too. *)
let top_cmd =
  let socket =
    Arg.(value & opt string ".vcilk.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket to dial.")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Dial loopback TCP instead of the Unix socket.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"S" ~doc:"Seconds between polls.")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"Stop after N refreshes (0 = until interrupted).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:
               "Print a single snapshot without clearing the screen and \
                exit (scriptable form of $(b,--count 1)).")
  in
  (* "stats k=v k=v ..." -> assoc *)
  let parse_kv line =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
            Some
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      (String.split_on_char ' ' (String.trim line))
  in
  (* One exposition sample line -> (metric, labels, value). *)
  let parse_sample line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else
      match String.rindex_opt line ' ' with
      | None -> None
      | Some sp -> (
          let head = String.sub line 0 sp in
          match float_of_string_opt
                  (String.sub line (sp + 1) (String.length line - sp - 1))
          with
          | None -> None
          | Some v -> (
              match String.index_opt head '{' with
              | None -> Some (head, [], v)
              | Some i when head.[String.length head - 1] = '}' ->
                  let name = String.sub head 0 i in
                  let inner =
                    String.sub head (i + 1) (String.length head - i - 2)
                  in
                  let labels =
                    List.filter_map
                      (fun kv ->
                        match String.index_opt kv '=' with
                        | None -> None
                        | Some j ->
                            let k = String.sub kv 0 j in
                            let v =
                              String.sub kv (j + 1) (String.length kv - j - 1)
                            in
                            let v =
                              (* strip the quotes *)
                              if
                                String.length v >= 2
                                && v.[0] = '"'
                                && v.[String.length v - 1] = '"'
                              then String.sub v 1 (String.length v - 2)
                              else v
                            in
                            Some (k, v))
                      (String.split_on_char ',' inner)
                  in
                  Some (name, labels, v)
              | Some _ -> None))
  in
  (* Cumulative-bucket nearest-rank quantile over the scraped
     [vcilk_request_wall_ms_bucket] series — the same read a Prometheus
     `histogram_quantile` does, minus interpolation. *)
  let hist_quantile samples q =
    let buckets =
      List.filter_map
        (fun (name, labels, v) ->
          if name = "vcilk_request_wall_ms_bucket" then
            match List.assoc_opt "le" labels with
            | Some "+Inf" -> Some (infinity, int_of_float v)
            | Some le -> (
                match float_of_string_opt le with
                | Some le -> Some (le, int_of_float v)
                | None -> None)
            | None -> None
          else None)
        samples
      |> List.sort compare
    in
    match List.rev buckets with
    | [] -> None
    | (_, total) :: _ when total = 0 -> None
    | (_, total) :: _ ->
        let rank =
          Stdlib.max 1 (int_of_float (ceil (q *. float_of_int total)))
        in
        List.find_opt (fun (_, c) -> c >= rank) buckets
        |> Option.map (fun (le, _) -> le)
  in
  let engine_rows samples =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (name, labels, v) ->
        if name = "vcilk_requests_total" then
          match List.assoc_opt "engine" labels with
          | Some engine ->
              let status =
                Option.value ~default:"?" (List.assoc_opt "status" labels)
              in
              let ok, err =
                Option.value ~default:(0, 0) (Hashtbl.find_opt tbl engine)
              in
              let n = int_of_float v in
              Hashtbl.replace tbl engine
                (if status = "ok" then (ok + n, err) else (ok, err + n))
          | None -> ())
      samples;
    Hashtbl.fold (fun e c acc -> (e, c) :: acc) tbl [] |> List.sort compare
  in
  let render ~endpoint stats_line metrics_body =
    let kv = parse_kv (Option.value ~default:"" stats_line) in
    let get k = Option.value ~default:"-" (List.assoc_opt k kv) in
    let samples =
      match metrics_body with
      | None -> []
      | Some body ->
          List.filter_map parse_sample (String.split_on_char '\n' body)
    in
    let q p =
      match hist_quantile samples p with
      | Some ms when ms = infinity -> "inf"
      | Some ms -> Printf.sprintf "%.2f" ms
      | None -> "-"
    in
    Format.printf "vcilk top — %s — uptime %ss@." endpoint (get "uptime_s");
    Format.printf
      "rps(10s) %-8s in-flight %-5s queue %-5s conns %-5s rejected \
       o/p/d %s/%s/%s@."
      (get "rps_10s") (get "in_flight") (get "queue_depth")
      (get "connections") (get "rejected_overload") (get "rejected_protocol")
      (get "rejected_draining");
    Format.printf
      "latency ms (lifetime): p50 %s  p99 %s  p99.9 %s   windowed: p50 %s  \
       p99 %s@."
      (q 0.5) (q 0.99) (q 0.999) (get "p50_wall_ms") (get "p99_wall_ms");
    (match engine_rows samples with
    | [] -> ()
    | rows ->
        Format.printf "%-12s %10s %10s@." "ENGINE" "OK" "ERR";
        List.iter
          (fun (e, (ok, err)) -> Format.printf "%-12s %10d %10d@." e ok err)
          rows);
    Format.print_flush ()
  in
  let run socket tcp interval count once =
    or_die @@ fun () ->
    let endpoint =
      match tcp with
      | Some port -> Printf.sprintf "tcp:127.0.0.1:%d" port
      | None -> Printf.sprintf "unix:%s" socket
    in
    let connect () =
      match tcp with
      | Some port ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          fd
      | None ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          fd
    in
    let count = if once then 1 else count in
    let rec loop i =
      let stats_line = Vc_serve.Loadgen.fetch_stats ~connect in
      let metrics_body = Vc_serve.Loadgen.fetch_metrics ~connect in
      if stats_line = None && metrics_body = None then begin
        Format.eprintf "vcilk: %s: daemon unreachable@." endpoint;
        exit Vc_core.Vc_error.exit_failure
      end;
      if not once then Format.printf "\027[2J\027[H";
      render ~endpoint stats_line metrics_body;
      if count = 0 || i < count then begin
        (try Unix.sleepf interval
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop (i + 1)
      end
    in
    loop 1;
    exit Vc_core.Vc_error.exit_ok
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running vcilk serve daemon: polls \
          /stats and /metrics and shows windowed rps, lifetime latency \
          quantiles (p50/p99/p99.9 from the histogram), queue depth, \
          in-flight jobs, and per-engine request rows. $(b,--once) prints \
          a single snapshot for scripts.")
    Term.(const run $ socket $ tcp $ interval $ count $ once)

let all_cmd =
  let run quick jobs no_cache =
    let ctx = ctx_of quick jobs no_cache in
    Sweep.prewarm ctx;
    let fmt = Format.std_formatter in
    Vc_exp.Tables.table1 ctx fmt;
    Vc_exp.Tables.table2 ctx fmt;
    Vc_exp.Tables.table3 ctx fmt;
    List.iter
      (fun f -> f ctx fmt)
      Vc_exp.Figures.
        [ figure9; figure10; figure11; figure12; figure13; figure14; figure15;
          figure16; figure17 ];
    Vc_exp.Ablations.strawman ctx fmt;
    Vc_exp.Ablations.compaction_cost ctx fmt;
    Vc_exp.Ablations.dsl_vs_native ctx fmt;
    Vc_exp.Ablations.aos_soa_overhead ctx fmt;
    Vc_exp.Ablations.multicore ctx fmt;
    Vc_exp.Ablations.width_scaling ctx fmt;
    Vc_exp.Ablations.task_cutoff ctx fmt;
    Vc_exp.Ablations.warm_cache ctx fmt;
    finish ctx
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table, figure, and ablation.")
    Term.(const run $ quick_flag $ jobs_flag $ no_cache_flag)

let setup_logs () =
  (* VCILK_LOG=debug|info|warning enables engine logging on stderr *)
  match Sys.getenv_opt "VCILK_LOG" with
  | None -> ()
  | Some level ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level
        (match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | _ -> Some Logs.Warning)

let () =
  setup_logs ();
  let doc =
    "Vectorized execution of recursive task-parallel programs (PLDI 2015 \
     reproduction)."
  in
  (* The exit-code taxonomy, defined once in Vc_error and documented
     here: a nonzero exit from chaos/fuzz/loadgen always means "the tool
     detected something", never "the tool fell over" (crashes are 125,
     usage errors 124, both from cmdliner). *)
  let exits =
    [
      Cmd.Exit.info Vc_core.Vc_error.exit_ok
        ~doc:
          "on success (chaos/fuzz/loadgen: every check passed or \
           recovered; serve: graceful drain completed).";
      Cmd.Exit.info Vc_core.Vc_error.exit_failure
        ~doc:
          "on a detected failure: a verification or chaos check failed, \
           fuzz diverged (reproducer written), loadgen saw a divergence \
           or lost replies, an unrecovered fault, or a load error.";
      Cmd.Exit.info Vc_core.Vc_error.exit_budget
        ~doc:
          "when a --deadline, --wall-deadline, --max-live-frames or \
           --max-tasks budget was exceeded.";
      Cmd.Exit.info 124 ~doc:"on command-line parsing errors.";
      Cmd.Exit.info 125
        ~doc:"on an unexpected internal crash (never a detected failure).";
      Cmd.Exit.info 130
        ~doc:
          "on SIGINT in long-running subcommands, after flushing partial \
           artifacts (serve instead drains gracefully and exits 0).";
      Cmd.Exit.info 143
        ~doc:
          "on SIGTERM in long-running subcommands, after flushing partial \
           artifacts (serve instead drains gracefully and exits 0).";
    ]
  in
  let info =
    Cmd.info "vcilk" ~version:(Vc_core.Version.describe ()) ~doc ~exits
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            transform_cmd;
            optimize_cmd;
            distribute_cmd;
            interp_cmd;
            table_cmd;
            figure_cmd;
            trace_cmd;
            profile_cmd;
            plot_cmd;
            export_cmd;
            bench_cmd;
            version_cmd;
            verify_cmd;
            chaos_cmd;
            fuzz_cmd;
            serve_cmd;
            loadgen_cmd;
            top_cmd;
            all_cmd;
          ]))
