(* Capstone property suite: random DSL programs through the full measured
   pipeline under randomized execution configurations.  The invariants here
   are the ones every table and figure in the reproduction rests on. *)

open Vc_core

let e5 = Vc_mem.Machine.xeon_e5
let phi = Vc_mem.Machine.xeon_phi

(* Random execution configuration. *)
let gen_config st =
  let open QCheck.Gen in
  let machine = if bool st then e5 else phi in
  let strategy =
    match int_range 0 2 st with
    | 0 -> Policy.Bfs_only
    | 1 -> Policy.Hybrid { max_block = 1 lsl int_range 0 10 st; reexpand = false }
    | _ -> Policy.Hybrid { max_block = 1 lsl int_range 0 10 st; reexpand = true }
  in
  let compact =
    if machine == phi then Vc_simd.Compact.Prefix_scatter { sub_width = 8 }
    else
      match int_range 0 2 st with
      | 0 -> Vc_simd.Compact.Sequential
      | 1 -> Vc_simd.Compact.Full_table
      | _ -> Vc_simd.Compact.Factorized { sub_width = 4 }
  in
  let cutoff = if bool st then 0 else 1 lsl int_range 0 4 st in
  (machine, strategy, compact, cutoff)

let arbitrary_case =
  QCheck.make
    ~print:(fun ((p, args), (machine, strategy, compact, cutoff)) ->
      Printf.sprintf "%s\nargs: %s\nconfig: %s, %s, %s, cutoff %d"
        (Vc_lang.Pp.program_to_string p)
        (String.concat ", " (List.map string_of_int args))
        machine.Vc_mem.Machine.name (Policy.describe strategy)
        (Vc_simd.Compact.name compact) cutoff)
    QCheck.Gen.(pair (QCheck.gen Qgen.arbitrary_program_and_args) gen_config)

let engine_agrees_with_interpreter =
  QCheck.Test.make
    ~name:
      "engine = interpreter on random programs under random machine / \
       strategy / compaction / cut-off"
    ~count:150 arbitrary_case
    (fun ((p, args), (machine, strategy, compact, cutoff)) ->
      let expected = (Vc_lang.Interp.run ~max_tasks:100_000 p args).Vc_lang.Interp.reducers in
      let spec = Compile.spec_of_program p ~args in
      let r = Engine.run ~compact ~cutoff ~spec ~machine ~strategy () in
      if r.Report.oom then true (* OOM runs report nothing *)
      else
        r.Report.reducers = expected
        && r.Report.tasks
           = Vc_lang.Profile.tasks
               (Vc_lang.Interp.run ~max_tasks:100_000 p args).Vc_lang.Interp.profile)

let report_invariants =
  QCheck.Test.make ~name:"report invariants on random configurations" ~count:100
    arbitrary_case
    (fun ((p, args), (machine, strategy, compact, cutoff)) ->
      let spec = Compile.spec_of_program p ~args in
      let r = Engine.run ~compact ~cutoff ~spec ~machine ~strategy () in
      let level_tasks = Array.fold_left (fun acc (t, _) -> acc + t) 0 r.Report.levels in
      let level_base = Array.fold_left (fun acc (_, b) -> acc + b) 0 r.Report.levels in
      r.Report.oom
      || (r.Report.utilization >= 0.0
          && r.Report.utilization <= 1.0 +. 1e-9
          && r.Report.lane_occupancy >= 0.0
          && r.Report.lane_occupancy <= 1.0 +. 1e-9
          && r.Report.cycles > 0.0
          && r.Report.space_peak <= machine.Vc_mem.Machine.max_live_threads
          && r.Report.base_tasks <= r.Report.tasks
          && level_tasks = r.Report.tasks
          && level_base = r.Report.base_tasks))

let trace_conserves_tasks =
  QCheck.Test.make ~name:"trace events partition the executed tasks" ~count:80
    Qgen.arbitrary_program_and_args (fun (p, args) ->
      let spec = Compile.spec_of_program p ~args in
      let sink, levels = Telemetry.level_sink () in
      let r =
        Engine.run ~telemetry:(Telemetry.with_sinks [ sink ]) ~spec ~machine:e5
          ~strategy:(Policy.Hybrid { max_block = 8; reexpand = true })
          ()
      in
      let sum f =
        List.fold_left
          (fun acc (st : Telemetry.stamped) ->
            match st.Telemetry.ev with
            | Telemetry.Level { size; base; _ } -> acc + f size base
            | _ -> acc)
          0 (levels ())
      in
      sum (fun size _ -> size) = r.Report.tasks
      && sum (fun _ base -> base) = r.Report.base_tasks)

let multicore_agrees =
  QCheck.Test.make ~name:"multicore hybrid = interpreter on random programs"
    ~count:60
    QCheck.(pair Qgen.arbitrary_program_and_args (int_range 1 6))
    (fun ((p, args), domains) ->
      let expected = (Vc_lang.Interp.run ~max_tasks:100_000 p args).Vc_lang.Interp.reducers in
      let spec = Compile.spec_of_program p ~args in
      let d =
        Domain_sched.run ~chunks:4 ~spec ~machine:e5
          ~strategy:(Policy.Hybrid { max_block = 16; reexpand = true })
          ~domains ()
      in
      d.Domain_sched.report.Report.reducers = expected)

let optimized_specs_agree =
  QCheck.Test.make
    ~name:"optimizer + compile + engine = interpreter on random programs"
    ~count:80 Qgen.arbitrary_program_and_args (fun (p, args) ->
      match Vc_lang.Interp.run ~max_tasks:100_000 p args with
      | exception Vc_lang.Interp.Runtime_error _ -> true
      | out ->
          let spec = Compile.spec_of_program (Vc_lang.Optim.program p) ~args in
          let r =
            Engine.run ~spec ~machine:e5
              ~strategy:(Policy.Hybrid { max_block = 32; reexpand = true })
              ()
          in
          r.Report.reducers = out.Vc_lang.Interp.reducers)

let () =
  Alcotest.run "vc_props"
    [
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            engine_agrees_with_interpreter;
            report_invariants;
            trace_conserves_tasks;
            multicore_agrees;
            optimized_specs_agree;
          ] );
    ]
