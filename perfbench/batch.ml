(* batch-compiled, batch-domains and batch-interp: the five DSL built-ins,
   each run from program text to a checked result (parse, transform,
   backend run) in one backend mode, one job at a time (closed loop, one
   thread).  Each mode is its own workload so that each is held to the
   bounds on its own. *)

module R = Vc_bench.Registry
module J = Vc_exp.Jsonx

let programs = [ "fib"; "parentheses"; "binomial"; "nqueens"; "uts" ]
let block = 4096

type prog = { name : string; text : string; roots : int array list; oracle : Oracle.t }

let prepare ~quick =
  List.map
    (fun name ->
      let e = R.find name in
      let p, roots = (Option.get e.dsl) ~quick in
      {
        name;
        text = Vc_lang.Pp.program_to_string p;
        roots;
        oracle = Oracle.for_scale ~quick e;
      })
    programs

let parse prog () = Vc_lang.Parser.parse_string prog.text
let job mode prog = Pipeline.run ~parse:(parse prog) ~mode ~block ~roots:prog.roots
let layers mode prog = Pipeline.layers ~parse:(parse prog) ~mode ~block ~roots:prog.roots

(* Set-up: inputs, oracle values, and one warm-up job per program. *)
let setup ~quick mode () =
  let progs = prepare ~quick in
  List.iter (fun p -> ignore (job mode p)) progs;
  progs

let check_result errors prog (mode : Pipeline.mode) (r : Vc_core.Backend.result) =
  let what = Printf.sprintf "%s/%s" prog.name mode.name in
  errors := Oracle.check ~what prog.oracle ~reducers:r.reducers ~tasks:r.tasks !errors

(* The traced pass: every layer of [mode]'s jobs, plus, for the domains
   mode, the same jobs on one domain.  A domains run's chunks report to
   private hubs, so its kernel and scheduler times are read from the
   one-domain run. *)
let layer_metrics (mode : Pipeline.mode) progs ~layers_of =
  let med m p = Layer_mix.median_layers (layers_of (m, p)) in
  let mix m = List.map (fun p -> (1.0, med m p)) progs in
  if mode.domains = None then Layer_mix.metrics (mix mode)
  else
    let d1 = Pipeline.compiled in
    let total f m = Pstats.sum (List.map (fun (_, l) -> f l) (mix m)) in
    List.remove_assoc "trace_overhead" (Layer_mix.metrics (mix d1))
    @ [
        ( "trace_overhead",
          List.assoc "trace_overhead" (Layer_mix.metrics (mix mode)) );
        ( "domains.frontier_share",
          total (fun (l : Pipeline.layers) -> l.label_s) mode
          /. total (fun (l : Pipeline.layers) -> l.exec_s) mode );
        ( "domains.scaling",
          Pstats.geomean
            (List.map
               (fun p -> (med d1 p).untraced_s /. (med mode p).untraced_s)
               progs) );
      ]

let layer_detail progs ~layers_of (mode : Pipeline.mode) =
  List.map
    (fun p ->
      let l = Layer_mix.median_layers (layers_of (mode, p)) in
      ( p.name ^ "/" ^ mode.name,
        J.Obj
          [
            ("exec_ms", J.Float (1000.0 *. l.exec_s));
            ("untraced_exec_ms", J.Float (1000.0 *. l.untraced_s));
            ("kernel_ms", J.Float (1000.0 *. l.kernel_s));
            ("sched_ms", J.Float (1000.0 *. (l.label_s -. l.kernel_s)));
            ("telescope_gap", J.Float (Layer_mix.telescope_gap l));
            ("parse_us", J.Float (1e6 *. l.parse_s));
            ("validate_us", J.Float (1e6 *. l.validate_s));
            ("transform_us", J.Float (1e6 *. l.transform_s));
            ("codegen_us", J.Float (1e6 *. l.codegen_s));
          ] ))
    progs

let run (mode : Pipeline.mode) (cfg : Bench_run.cfg) : Bench_run.t =
  let errors = ref [] in
  let rng = Bench_run.rng cfg ~salt:("batch-" ^ mode.name) in
  let add_job, job_samples = Bench_run.samples () in
  let add_layers, layer_samples = Bench_run.samples () in
  let traced_modes = if mode.domains = None then [ mode ] else [ mode; Pipeline.compiled ] in
  let progs, setup_s = Bench_run.timed_setups (setup ~quick:cfg.quick mode) in
  Bench_run.for_seconds ~min_rounds:2 ~rng cfg.seconds progs (fun p ->
      (* every job starts from a collected heap, so the peak resident set
         does not depend on the order jobs ran in *)
      Gc.full_major ();
      let (j : Pipeline.job), t = Pstats.time (fun () -> job mode p) in
      check_result errors p mode j.result;
      add_job p.name (t, j);
      if cfg.trace then
        List.iter
          (fun m ->
            let l = layers m p in
            check_result errors p m l.traced;
            add_layers (m.Pipeline.name ^ "/" ^ p.name) l)
          traced_modes);
  let jobs p = job_samples p.name in
  let best_s p = Pstats.best (List.map fst (jobs p)) in
  let tasks p = match jobs p with (_, j) :: _ -> j.result.tasks | [] -> 0 in
  let layers_of ((m : Pipeline.mode), p) = layer_samples (m.name ^ "/" ^ p.name) in
  let metrics =
    if not cfg.trace then
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", Pstats.peak_rss_mb (Unix.getpid ()));
        ("jobs_per_s", Pstats.geomean (List.map (fun p -> 1.0 /. best_s p) progs));
      ]
    else layer_metrics mode progs ~layers_of
  in
  let job_detail p =
    ( p.name,
      J.Obj
        [
          ("samples", J.Int (List.length (jobs p)));
          ("best_job_ms", J.Float (1000.0 *. best_s p));
          ("mtasks_per_s", J.Float (float_of_int (tasks p) /. best_s p /. 1e6));
          ("tasks", J.Int (tasks p));
          ("job_ms", J.List (List.map (fun (t, _) -> J.Float (1000.0 *. t)) (jobs p)));
        ] )
  in
  {
    errors = !errors;
    attempted = List.fold_left (fun acc p -> acc + List.length (jobs p)) 0 progs;
    failed = 0;
    metrics;
    detail =
      [
        ("mode", J.String mode.name);
        ("jobs", J.Obj (List.map job_detail progs));
      ]
      @
      if cfg.trace then
        [ ("layers", J.Obj (List.concat_map (layer_detail progs ~layers_of) traced_modes)) ]
      else [];
  }
