(* The multicore x SIMD hybrid (the paper's §8 future work).

   The single-core engine vectorizes one core's work; this example layers
   multicore scheduling on top through the hybrid domain scheduler: a
   serial breadth-first expansion grows the frontier, the frontier splits
   into chunks that run on P real OCaml domains with chunk stealing, and a
   discrete-event work-stealing simulation (per-steal costs included)
   models the makespan over the measured per-chunk cycles.

   Run with: dune exec examples/multicore_hybrid.exe *)

let () =
  let machine = Vc_mem.Machine.xeon_e5 in
  let spec = Vc_bench.Nqueens.spec { Vc_bench.Nqueens.n = 11 } in
  let seq = Vc_core.Seq_exec.run ~spec ~machine () in
  Format.printf "11-queens, %a: sequential = %.3e cycles, %d solutions@.@."
    Vc_mem.Machine.pp machine seq.Vc_core.Report.cycles
    (Vc_core.Report.reducer seq "solutions");
  Format.printf "%8s %6s %10s %12s %8s %10s %12s@." "workers" "chunks"
    "frontier" "speedup" "steals" "serial%" "solutions";
  List.iter
    (fun workers ->
      let d =
        Vc_core.Domain_sched.run ~spec ~machine
          ~strategy:(Vc_core.Policy.Hybrid { max_block = 4096; reexpand = true })
          ~domains:workers ()
      in
      let r = d.Vc_core.Domain_sched.report in
      Format.printf "%8d %6d %10d %12.2f %8d %9.1f%% %12d@." workers
        d.Vc_core.Domain_sched.chunks d.Vc_core.Domain_sched.frontier
        (Vc_core.Domain_sched.speedup ~baseline:seq d)
        d.Vc_core.Domain_sched.modeled_steals
        (100.0 *. d.Vc_core.Domain_sched.expansion_cycles /. r.Vc_core.Report.cycles)
        (Vc_core.Report.reducer r "solutions"))
    [ 1; 2; 4; 8; 16; 32 ];
  Format.printf
    "@.The SIMD speedup composes with core count until the serial expansion@.\
     phase (Amdahl) and chunk imbalance take over.@."
