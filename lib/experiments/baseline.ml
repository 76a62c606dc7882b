type metrics = {
  cycles : float;
  speedup : float;
  domains_speedup : float;
  lane_occupancy : float;
  compaction_passes : int;
  space_peak : int;
  occupancy_hist : int array;
}

let default_block = 256

let collect ?(block = default_block) ctx =
  List.concat_map
    (fun (e : Vc_bench.Registry.entry) ->
      List.map
        (fun (m : Vc_mem.Machine.t) ->
          let r = Sweep.hybrid ctx e m ~reexpand:true ~block in
          let rd = Sweep.hybrid_domains ctx e m ~block ~domains:2 in
          ( e.Vc_bench.Registry.name ^ "/" ^ m.Vc_mem.Machine.name,
            {
              cycles = r.Vc_core.Report.cycles;
              speedup = Sweep.speedup ctx e m r;
              domains_speedup = Sweep.speedup ctx e m rd;
              lane_occupancy = r.Vc_core.Report.lane_occupancy;
              compaction_passes = r.Vc_core.Report.compaction_passes;
              space_peak = r.Vc_core.Report.space_peak;
              occupancy_hist = Array.copy r.Vc_core.Report.occupancy_hist;
            } ))
        Sweep.machines)
    Vc_bench.Registry.all
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp ppf rows =
  Format.fprintf ppf "%-15s %-24s %-24s %-24s %-24s %6s %6s %s@." "BENCH/MACHINE"
    "CYCLES" "SPEEDUP" "DSPEED" "OCC" "CPASS" "SPACE" "OCC_HIST";
  List.iter
    (fun (key, m) ->
      Format.fprintf ppf "%-15s %-24.17g %-24.17g %-24.17g %-24.17g %6d %6d %s@." key
        m.cycles m.speedup m.domains_speedup m.lane_occupancy m.compaction_passes
        m.space_peak
        (String.concat " " (Array.to_list (Array.map string_of_int m.occupancy_hist))))
    rows
