type t = {
  vm : Vc_simd.Vm.t;
  hier : Vc_mem.Hierarchy.t;
  addr : Addr.t;
  metrics : Metrics.t;
  machine : Vc_mem.Machine.t;
}

let create (machine : Vc_mem.Machine.t) =
  let hier = machine.Vc_mem.Machine.hierarchy () in
  let vm =
    Vc_simd.Vm.create
      ~on_access:(fun ~addr ~bytes ~write:_ -> Vc_mem.Hierarchy.access hier ~addr ~bytes)
      machine.Vc_mem.Machine.isa
  in
  { vm; hier; addr = Addr.create (); metrics = Metrics.create (); machine }

let report t ~benchmark ~strategy ~reducers ~wall_seconds =
  let stats = Vc_simd.Vm.stats t.vm in
  let issue = Vc_simd.Vm.issue_cycles t.vm in
  let penalty = Vc_mem.Hierarchy.penalty_cycles t.hier in
  let cycles = issue +. penalty in
  let cache = Vc_mem.Hierarchy.level_stats t.hier in
  {
    Report.benchmark;
    machine = t.machine.Vc_mem.Machine.name;
    strategy;
    oom = false;
    reducers;
    tasks = Metrics.total_tasks t.metrics;
    base_tasks = Metrics.total_base t.metrics;
    max_depth = Metrics.max_depth t.metrics;
    issue_cycles = issue;
    penalty_cycles = penalty;
    cycles;
    cpi = Vc_mem.Cost.cpi t.vm t.hier;
    utilization = Vc_simd.Stats.simd_utilization stats;
    lane_occupancy = Vc_simd.Stats.lane_occupancy stats;
    scalar_ops = stats.Vc_simd.Stats.scalar_ops;
    vector_ops = stats.Vc_simd.Stats.vector_ops;
    kernel_ops = Metrics.kernel_op_count t.metrics;
    cache;
    miss_rates =
      List.map (fun (label, _, _) -> (label, Vc_mem.Hierarchy.miss_rate t.hier label)) cache;
    space_peak = Metrics.space_peak t.metrics;
    levels = Metrics.levels t.metrics;
    reexpansions = Metrics.reexpansions t.metrics;
    reexp_count = Metrics.reexpansion_total t.metrics;
    compaction_calls = stats.Vc_simd.Stats.compaction_calls;
    compaction_passes = stats.Vc_simd.Stats.compaction_passes;
    occupancy_hist = Metrics.occupancy_hist t.metrics;
    wall_seconds;
  }
