(* sim-full: the cost-model simulator alone.  Engine.run on every benchmark
   x {e5, phi}, hybrid re-expansion at block 256, one simulation at a time
   (closed loop, one thread).  No backend or daemon code runs. *)

module R = Vc_bench.Registry
module J = Vc_exp.Jsonx
module Report = Vc_core.Report

let strategy = Vc_core.Policy.Hybrid { max_block = 256; reexpand = true }

type point = {
  name : string;
  machine : Vc_mem.Machine.t;
  spec : Vc_core.Spec.t;
  oracle : Oracle.t;
}

(* Set-up: the specs and their oracle values. *)
let setup ~quick () =
  let quick_ctx = lazy (Vc_exp.Sweep.create ~quick:true ()) in
  List.concat_map
    (fun (e : R.entry) ->
      let spec =
        if quick then Vc_exp.Sweep.spec_of (Lazy.force quick_ctx) e else e.spec ()
      in
      let oracle = Oracle.for_scale ~quick e in
      List.map
        (fun (machine : Vc_mem.Machine.t) ->
          { name = e.name ^ "/" ^ machine.name; machine; spec; oracle })
        Vc_exp.Sweep.machines)
    R.all

let simulate ?telemetry pt () =
  Vc_core.Engine.run ?telemetry ~spec:pt.spec ~machine:pt.machine ~strategy ()

(* A tracing hub as a user would attach one: every event reaches a sink. *)
let counting_hub () =
  let n = ref 0 in
  (Vc_core.Telemetry.with_sinks [ Vc_core.Telemetry.callback_sink (fun _ -> incr n) ], n)

let run (cfg : Bench_run.cfg) : Bench_run.t =
  let rng = Bench_run.rng cfg ~salt:"sim-full" in
  let errors = ref [] in
  let add_time, times = Bench_run.samples () and add_traced, traced = Bench_run.samples () in
  let reports = Hashtbl.create 16 and events = ref 0 in
  (* modeled quantities are deterministic: every rerun must repeat them *)
  let check pt (r : Report.t) =
    if r.oom then errors := (pt.name ^ ": out of memory") :: !errors;
    errors := Oracle.check ~what:pt.name pt.oracle ~reducers:r.reducers ~tasks:r.tasks !errors;
    match Hashtbl.find_opt reports pt.name with
    | None -> Hashtbl.add reports pt.name r
    | Some first when not (Report.equal first r) ->
        errors := (pt.name ^ ": modeled report differs between runs") :: !errors
    | Some _ -> ()
  in
  let points, setup_s = Bench_run.timed_setups (setup ~quick:cfg.quick) in
  Bench_run.for_seconds ~rng cfg.seconds points (fun pt ->
      (* every simulation starts from a collected heap, so the peak
         resident set does not depend on the order points ran in *)
      Gc.full_major ();
      let r, t = Pstats.time (simulate pt) in
      check pt r;
      add_time pt.name t;
      if cfg.trace then begin
        let hub, n = counting_hub () in
        Gc.full_major ();
        let r, t = Pstats.time (simulate ~telemetry:hub pt) in
        check pt r;
        events := !events + !n;
        add_traced pt.name t
      end);
  let host_s pt = Pstats.best (times pt.name) in
  let report pt = Hashtbl.find reports pt.name in
  let total f = Pstats.sum (List.map (fun pt -> f (report pt)) points) in
  let mean f = Pstats.mean (List.map (fun pt -> f (report pt)) points) in
  let misses label =
    total (fun r ->
        List.fold_left
          (fun acc (l, _, m) -> if l = label then acc +. float_of_int m else acc)
          0.0 r.Report.cache)
  in
  let metrics =
    if not cfg.trace then
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", Pstats.peak_rss_mb (Unix.getpid ()));
        ("jobs_per_s", Pstats.geomean (List.map (fun pt -> 1.0 /. host_s pt) points));
      ]
    else
      [
        ( "engine.ns_per_task",
          Pstats.geomean
            (List.map (fun pt -> 1e9 *. host_s pt /. float_of_int (report pt).tasks) points) );
        ("engine.modeled_cycles", Pstats.geomean (List.map (fun pt -> (report pt).cycles) points));
        ("engine.lane_occupancy", mean (fun r -> r.lane_occupancy));
        ("engine.utilization", mean (fun r -> r.utilization));
        ("engine.vector_ops", total (fun r -> float_of_int r.vector_ops));
        ("engine.scalar_ops", total (fun r -> float_of_int r.scalar_ops));
        ("engine.reexp_count", total (fun r -> float_of_int r.reexp_count));
        ("simd.compaction_calls", total (fun r -> float_of_int r.compaction_calls));
        ("simd.compaction_passes", total (fun r -> float_of_int r.compaction_passes));
        ("mem.L1d.misses", misses "L1d");
        ("mem.L2.misses", misses "L2");
        ("mem.LLC.misses", misses "LLC");
        ( "trace_overhead",
          Pstats.geomean
            (List.map (fun pt -> Pstats.best (traced pt.name) /. host_s pt) points)
          -. 1.0 );
      ]
  in
  {
    errors = !errors;
    attempted = List.fold_left (fun acc pt -> acc + List.length (times pt.name)) 0 points;
    failed = 0;
    metrics;
    detail =
      [
        ( "points",
          J.Obj
            (List.map
               (fun pt ->
                 let r = report pt in
                 ( pt.name,
                   J.Obj
                     [
                       ("samples", J.Int (List.length (times pt.name)));
                       ("best_host_ms", J.Float (1000.0 *. host_s pt));
                       ("host_ms", J.List (List.map (fun t -> J.Float (1000.0 *. t)) (times pt.name)));
                       ("mtasks_per_s", J.Float (float_of_int r.tasks /. host_s pt /. 1e6));
                       ("tasks", J.Int r.tasks);
                       ("modeled_cycles", J.Float r.cycles);
                       ("lane_occupancy", J.Float r.lane_occupancy);
                     ] ))
               points) );
      ]
      @ if cfg.trace then [ ("trace_events", J.Int !events) ] else [];
  }
