(* The repository benchmark.  One command runs one workload and prints every
   metric by name with its unit; the last line of standard output is the
   result object:

     perf.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
     perf.exe --smoke
     perf.exe compare PARENT_DIR/*.json CHANGE_DIR/*.json
     perf.exe record FILE

   It runs from the root of a checkout, where BENCHMARK.json declares the
   gated workloads and every metric.  The serve workloads are not declared
   there (their times do not repeat within its bounds, see README.md) but
   run the same way.  Exit codes: 0 ok, 1 an output failed its oracle
   check, 2 the benchmark could not run. *)

module J = Vc_exp.Jsonx

let workloads =
  [
    ("batch-compiled", Batch.run Pipeline.compiled);
    ("batch-domains", Batch.run Pipeline.d2);
    ("batch-interp", Batch.run Pipeline.blocked);
    ("sim-full", Sim.run);
    ("serve-compute", Served.run Served.compute);
    ("serve-memo", Served.run Served.memo);
  ]

(* Metrics in declaration order with their units.  A per-layer metric the
   workload does not produce belongs to a layer it never passes through,
   and reads 0. *)
let metrics_of manifest ~trace (r : Bench_run.t) =
  let declared = Manifest.declared manifest ~trace in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Manifest.metric) -> m.name = name) declared) then
        failwith ("metric not declared in BENCHMARK.json: " ^ name))
    r.metrics;
  List.map
    (fun (m : Manifest.metric) ->
      let v =
        match List.assoc_opt m.name r.metrics with
        | Some v -> v
        | None when trace -> 0.0
        | None -> failwith ("workload did not measure " ^ m.name)
      in
      if not (Float.is_finite v) then failwith (Printf.sprintf "%s is not finite" m.name);
      (m.name, v, m.unit_))
    declared

let metrics_json ms =
  J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ])) ms)

let run_one manifest ~name (cfg : Bench_run.cfg) =
  let run =
    match List.assoc_opt name workloads with
    | Some run -> run
    | None -> failwith ("unknown workload " ^ name)
  in
  let r = run cfg in
  List.iter (fun e -> prerr_endline ("oracle mismatch: " ^ e)) (List.rev r.errors);
  (r, metrics_of manifest ~trace:cfg.trace r)

let summary ~correct (r : Bench_run.t) ms =
  [
    ("correct", J.Bool correct);
    ("attempted", J.Int r.attempted);
    ("failed", J.Int r.failed);
    ("metrics", metrics_json ms);
  ]

let measure manifest ~name ~out cfg =
  let r, ms = run_one manifest ~name cfg in
  let correct = r.errors = [] in
  List.iter (fun (n, v, u) -> Printf.eprintf "%-30s %14.6g %s\n" n v u) ms;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (J.to_pretty_string
               (J.Obj
                  ([
                     ("workload", J.String name);
                     ("seed", J.Int cfg.seed);
                     ("seconds", J.Float cfg.seconds);
                     ("trace", J.Bool cfg.trace);
                   ]
                  @ summary ~correct r ms
                  @ [ ("detail", J.Obj r.detail) ])))))
    out;
  print_endline (J.to_string (J.Obj (summary ~correct r ms)));
  exit (if correct then 0 else 1)

(* Every workload in both passes on reduced inputs for one second: each
   declared metric present with its unit, every oracle passing, nothing
   failed. *)
let smoke manifest ~vcilk =
  let ok = ref true in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let cfg = { Bench_run.seed = 1; seconds = 1.0; trace; quick = true; vcilk } in
          let verdict =
            match run_one manifest ~name cfg with
            | r, _ when r.errors <> [] -> "oracle mismatch"
            | r, _ when r.failed > 0 -> Printf.sprintf "%d operations failed" r.failed
            | _ -> "ok"
            | exception Failure e -> e
          in
          if verdict <> "ok" then ok := false;
          Printf.printf "smoke %-14s trace=%d %s\n%!" name (Bool.to_int trace) verdict)
        [ false; true ])
    (List.map fst workloads);
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref None and vcilk = ref "_build/default/bin/vcilk.exe" in
  let mode = ref `Measure and files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (program order, mix draws, arrivals)");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end pass (0) or per-layer pass (1)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  also write the full result here");
      ("--vcilk", Arg.Set_string vcilk, "PATH  daemon binary for the serve workloads");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " quick self-check of every workload");
    ]
  in
  let anon a =
    match (a, !files, !mode) with
    | "compare", [], `Measure -> mode := `Compare
    | "record", [], `Measure -> mode := `Record
    | f, _, `Compare -> files := f :: !files
    | f, [], `Record -> files := [ f ]
    | _ -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  let usage = "perf.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]" in
  Arg.parse spec anon usage;
  (* exit runs the at_exit hooks that stop any daemon this run started *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  try
    let manifest = Manifest.load () in
    match !mode with
    | `Compare -> Compare.main manifest (List.rev !files)
    | `Record -> (
        match !files with
        | [ file ] -> Record.main manifest ~workloads:(List.map fst workloads) file
        | _ -> failwith "record: expects one output file")
    | `Smoke -> smoke manifest ~vcilk:!vcilk
    | `Measure ->
        measure manifest ~name:!workload ~out:!out
          {
            Bench_run.seed = !seed;
            seconds = !seconds;
            trace = !trace = 1;
            quick = false;
            vcilk = !vcilk;
          }
  with Failure e | Sys_error e ->
    prerr_endline ("perf: " ^ e);
    exit 2
