open Vc_bench

let strawman ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A1: the strawman (one divergent thread per SIMD lane, §2) \
     vs the blocked transformation@,@,";
  Format.fprintf fmt "%-12s %-8s %12s %12s@," "benchmark" "machine" "strawman"
    "reexp(best)";
  List.iter
    (fun name ->
      let entry = Registry.find name in
      List.iter
        (fun machine ->
          let straw = Sweep.strawman ctx entry machine in
          let _, best = Sweep.best ctx entry machine ~reexpand:true in
          Format.fprintf fmt "%-12s %-8s %12.2f %12.2f@," name
            machine.Vc_mem.Machine.name
            (Sweep.speedup ctx entry machine straw)
            (Sweep.speedup ctx entry machine best))
        Sweep.machines)
    [ "fib"; "nqueens" ];
  Format.fprintf fmt "@]@."

let compaction_cost _ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A2: stream-compaction engine cost for one 2^16-element \
     partition at width 16@,@,";
  Format.fprintf fmt "%-18s %10s %10s %10s %10s %12s@," "engine" "scalar"
    "vector" "lookups" "shuffles" "table bytes";
  let n = 1 lsl 16 in
  List.iter
    (fun (engine, isa) ->
      let vm = Vc_simd.Vm.create isa in
      ignore
        (Vc_simd.Compact.partition ~vm ~engine ~width:16 ~n ~pred:(fun i ->
             Vc_bench.Rng.mix32 i 0 land 1 = 0));
      let s = Vc_simd.Vm.stats vm in
      Format.fprintf fmt "%-18s %10d %10d %10d %10d %12d@,"
        (Vc_simd.Compact.name engine)
        s.Vc_simd.Stats.scalar_ops s.Vc_simd.Stats.vector_ops
        s.Vc_simd.Stats.table_lookups s.Vc_simd.Stats.shuffles
        (Vc_simd.Compact.table_memory_bytes engine ~width:16))
    [
      (Vc_simd.Compact.Sequential, Vc_simd.Isa.sse42);
      (Vc_simd.Compact.Full_table, Vc_simd.Isa.sse42);
      (Vc_simd.Compact.Factorized { sub_width = 8 }, Vc_simd.Isa.sse42);
      (Vc_simd.Compact.Factorized { sub_width = 4 }, Vc_simd.Isa.sse42);
      (Vc_simd.Compact.Prefix_scatter { sub_width = 8 }, Vc_simd.Isa.avx512);
    ];
  Format.fprintf fmt "@]@."

let dsl_vs_native ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A3: DSL-compiled spec (Fig. 7 pipeline) vs hand-written \
     native spec, fib(20), Xeon E5, re-expansion at 2^8@,@,";
  let machine = Vc_mem.Machine.xeon_e5 in
  let strategy = Vc_core.Policy.Hybrid { max_block = 256; reexpand = true } in
  let native = Fib.spec { Fib.n = 20 } in
  let program, args = Fib.dsl { Fib.n = 20 } in
  let compiled = Vc_core.Compile.spec_of_program ~lane_kind:Vc_simd.Lane.I8 program ~args in
  Format.fprintf fmt "%-10s %12s %12s %12s %10s@," "spec" "result" "tasks"
    "cycles" "util";
  List.iter
    (fun (label, spec) ->
      let r = Vc_core.Engine.run ~spec ~machine ~strategy () in
      Format.fprintf fmt "%-10s %12d %12d %12.3e %10.3f@," label
        (Vc_core.Report.reducer r "result")
        r.Vc_core.Report.tasks r.Vc_core.Report.cycles r.Vc_core.Report.utilization)
    [ ("native", native); ("compiled", compiled) ];
  ignore ctx;
  Format.fprintf fmt "@]@."

let multicore ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A5: multicore work stealing x SIMD blocks (paper Sec. 8 future work), Xeon E5@,@,";
  Format.fprintf fmt "%-12s %8s %8s %10s %10s %10s@," "benchmark" "workers"
    "jobs" "speedup" "balance" "serial%";
  List.iter
    (fun name ->
      let entry = Registry.find name in
      let machine = Vc_mem.Machine.xeon_e5 in
      let spec = Sweep.spec_of ctx entry in
      let seq = Sweep.seq ctx entry machine in
      List.iter
        (fun workers ->
          let d =
            Vc_core.Domain_sched.run ~spec ~machine
              ~strategy:(Vc_core.Policy.Hybrid { max_block = 4096; reexpand = true })
              ~domains:workers ()
          in
          let r = d.Vc_core.Domain_sched.report in
          let work = d.Vc_core.Domain_sched.work_cycles in
          if r.Vc_core.Report.oom then
            Format.fprintf fmt "%-12s %8d %8s@," name workers "OOM"
          else
            Format.fprintf fmt "%-12s %8d %8d %10.2f %10.2f %9.1f%%@," name workers
              d.Vc_core.Domain_sched.chunks
              (Vc_core.Domain_sched.speedup ~baseline:seq d)
              (if work <= 0.0 then 1.0
               else d.Vc_core.Domain_sched.makespan_cycles /. (work /. float_of_int workers))
              (100.0 *. d.Vc_core.Domain_sched.expansion_cycles /. r.Vc_core.Report.cycles))
        [ 1; 2; 4; 8; 16 ])
    [ "fib"; "nqueens"; "graphcol" ];
  Format.fprintf fmt "@]@."

let width_scaling ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A6: vector-width scaling on future hardware (Sec. 8: char-level 512-bit vectors)@,@,";
  Format.fprintf fmt "%-12s %-10s %6s %10s@," "benchmark" "machine" "width"
    "speedup";
  List.iter
    (fun name ->
      let entry = Registry.find name in
      let spec = Sweep.spec_of ctx entry in
      List.iter
        (fun (machine : Vc_mem.Machine.t) ->
          let width =
            Vc_simd.Isa.lanes machine.Vc_mem.Machine.isa
              (Vc_core.Schema.lane_kind spec.Vc_core.Spec.schema)
          in
          let seq = Vc_core.Seq_exec.run ~spec ~machine () in
          let r =
            Vc_core.Engine.run ~spec ~machine
              ~strategy:(Vc_core.Policy.Hybrid { max_block = 1 lsl 9; reexpand = true })
              ()
          in
          Format.fprintf fmt "%-12s %-10s %6d %10.2f@," name
            machine.Vc_mem.Machine.name width
            (Vc_core.Report.speedup ~baseline:seq r))
        [ Vc_mem.Machine.xeon_e5; Vc_mem.Machine.xeon_phi; Vc_mem.Machine.knl ])
    [ "fib"; "knapsack"; "nqueens" ];
  Format.fprintf fmt "@]@."

let task_cutoff ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A7: task cut-off (Sec. 6.1: the paper runs without one to maximize vectorization)@,@,";
  Format.fprintf fmt "%-12s %8s %12s %12s@," "benchmark" "cutoff" "speedup" "util";
  List.iter
    (fun name ->
      let entry = Registry.find name in
      let machine = Vc_mem.Machine.xeon_e5 in
      let spec = Sweep.spec_of ctx entry in
      let seq = Sweep.seq ctx entry machine in
      List.iter
        (fun cutoff ->
          let r =
            Vc_core.Engine.run ~cutoff ~spec ~machine
              ~strategy:(Vc_core.Policy.Hybrid { max_block = 256; reexpand = true })
              ()
          in
          Format.fprintf fmt "%-12s %8s %12.2f %11.1f%%@," name
            (if cutoff = 0 then "none" else string_of_int cutoff)
            (Vc_core.Report.speedup ~baseline:seq r)
            (100.0 *. r.Vc_core.Report.utilization))
        [ 0; 4; 16; 64; 256 ])
    [ "fib"; "nqueens" ];
  Format.fprintf fmt "@]@."

let warm_cache ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A8: warm-cache speedup (Table 2's minmax footnote)@,@,";
  Format.fprintf fmt "%-12s %-8s %10s %10s@," "benchmark" "machine" "cold" "warm";
  List.iter
    (fun name ->
      let entry = Registry.find name in
      let spec = Sweep.spec_of ctx entry in
      List.iter
        (fun (machine : Vc_mem.Machine.t) ->
          let seq = Sweep.seq ctx entry machine in
          let block, _ = Sweep.best ctx entry machine ~reexpand:true in
          let strategy = Vc_core.Policy.Hybrid { max_block = block; reexpand = true } in
          let cold = Vc_core.Engine.run ~spec ~machine ~strategy () in
          let warm = Vc_core.Engine.run ~warm:true ~spec ~machine ~strategy () in
          Format.fprintf fmt "%-12s %-8s %10.2f %10.2f@," name
            machine.Vc_mem.Machine.name
            (Vc_core.Report.speedup ~baseline:seq cold)
            (Vc_core.Report.speedup ~baseline:seq warm))
        Sweep.machines)
    [ "minmax"; "graphcol" ];
  Format.fprintf fmt "@]@."

let aos_soa_overhead _ctx fmt =
  Format.fprintf fmt
    "@[<v>Ablation A4: dynamic AoS->SoA conversion cost (§5, kernel-only \
     benchmarks) for a 2^14-frame uts block@,@,";
  let isa = Vc_simd.Isa.sse42 in
  let vm = Vc_simd.Vm.create isa in
  let addr = Vc_core.Addr.create () in
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I32 [ "state" ] in
  let n = 1 lsl 14 in
  let frames = Array.init n (fun i -> [| Vc_bench.Rng.mix32 i 0 |]) in
  let blk = Vc_core.Soa.aos_to_soa ~vm ~addr ~schema ~isa ~aos_base:0x900000 ~frames () in
  let convert_cycles = Vc_simd.Vm.issue_cycles vm in
  let vm2 = Vc_simd.Vm.create isa in
  (* one level of kernel work over the same block for scale *)
  Vc_simd.Vm.batch vm2 ~width:4 ~n:(Vc_core.Block.size blk) ~insns_per_task:16 ();
  Format.fprintf fmt "conversion issue cycles: %.3e@," convert_cycles;
  Format.fprintf fmt "one kernel level:        %.3e@," (Vc_simd.Vm.issue_cycles vm2);
  Format.fprintf fmt "ratio:                   %.3f@,"
    (convert_cycles /. Vc_simd.Vm.issue_cycles vm2);
  Format.fprintf fmt "@]@."
