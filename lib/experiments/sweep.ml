open Vc_bench

type engine = Model | Blocked | Compiled
type strategy = Seq | Strawman | Bfs | Noreexp | Reexp

let engine_names = [ (Model, "engine"); (Blocked, "blocked"); (Compiled, "compiled") ]

let strategy_names =
  [ (Seq, "seq"); (Strawman, "strawman"); (Bfs, "bfs"); (Noreexp, "noreexp");
    (Reexp, "reexp") ]

let of_name names s = List.find_map (fun (v, n) -> if n = s then Some v else None) names
let engines = List.map fst engine_names
let engine_name e = List.assoc e engine_names
let engine_of_string = of_name engine_names
let strategies = List.map fst strategy_names
let strategy_name s = List.assoc s strategy_names
let strategy_of_string = of_name strategy_names

type point = {
  entry : Registry.entry;
  engine : engine;
  machine : Vc_mem.Machine.t;
  strategy : strategy;
  block : int;
  compact : Vc_simd.Compact.engine option;
  domains : int option;
}

let point entry =
  let machine = Vc_mem.Machine.xeon_e5 in
  { entry; engine = Model; machine; strategy = Reexp; block = 256; compact = None;
    domains = None }

let validate p =
  let scalar = p.strategy = Seq || p.strategy = Strawman in
  match p.domains with
  | _ when p.block < 1 -> Error "block must be >= 1"
  | Some d when d < 1 -> Error "--domains must be positive"
  | Some _ when scalar ->
      Error "--domains applies to the engine strategies (bfs|noreexp|reexp)"
  | _ when scalar && p.engine <> Model ->
      Error
        (Printf.sprintf "--engine %s runs the blocked scheduler (bfs|noreexp|reexp)"
           (engine_name p.engine))
  | _ -> Ok ()

type result =
  | Report of Vc_core.Report.t * Vc_core.Domain_sched.result option
  | Wall of Vc_core.Backend.result

type counts =
  { reducers : (string * int) list; tasks : int; base_tasks : int; max_depth : int }

let counts = function
  | Report (r, _) ->
      let { Vc_core.Report.reducers; tasks; base_tasks; max_depth; _ } = r in
      { reducers; tasks; base_tasks; max_depth }
  | Wall { Vc_core.Backend.reducers; tasks; base_tasks; max_depth; _ } ->
      { reducers; tasks; base_tasks; max_depth }

type ctx = {
  quick : bool;
  jobs : int;
  budgets : Vc_core.Supervisor.budgets;
  faults : Vc_core.Fault.plan;
  specs : (string, Vc_core.Spec.t) Hashtbl.t;
  runs : (string, result) Hashtbl.t;  (* keyed by [key_string] *)
  lock : Mutex.t;
  disk : Run_cache.t option;
  mutable simulated : int;
  mutable disk_hits : int;
  mutable failed : Pool.failure list;
}

let create ?quick ?(jobs = 1) ?(cache_dir = None)
    ?(budgets = Vc_core.Supervisor.no_budgets) ?(faults = Vc_core.Fault.none) () =
  let quick =
    match quick with
    | Some q -> q
    | None -> (
        match Sys.getenv_opt "VC_BENCH_QUICK" with
        | Some ("1" | "true" | "yes") -> true
        | _ -> false)
  in
  {
    quick;
    jobs = max 1 jobs;
    budgets;
    faults;
    specs = Hashtbl.create 16;
    runs = Hashtbl.create 256;
    lock = Mutex.create ();
    disk = Option.map (fun dir -> Run_cache.load ~faults ~dir ()) cache_dir;
    simulated = 0;
    disk_hits = 0;
    failed = [];
  }

let quick ctx = ctx.quick
let jobs ctx = ctx.jobs
let simulations ctx = Mutex.protect ctx.lock (fun () -> ctx.simulated)
let cache_hits ctx = Mutex.protect ctx.lock (fun () -> ctx.disk_hits)
let failures ctx = Mutex.protect ctx.lock (fun () -> List.rev ctx.failed)

let persist ctx = Option.iter (Run_cache.persist ~faults:ctx.faults) ctx.disk

let machines = [ Vc_mem.Machine.xeon_e5; Vc_mem.Machine.xeon_phi ]

(* Small workloads for [--quick] smoke runs and the test suites. *)
let quick_spec name =
  match name with
  | "knapsack" -> Knapsack.spec { Knapsack.n = 13; capacity_ratio = 0.5; seed = 1 }
  | "fib" -> Fib.spec { Fib.n = 20 }
  | "parentheses" -> Parentheses.spec { Parentheses.pairs = 9 }
  | "nqueens" -> Nqueens.spec { Nqueens.n = 9 }
  | "graphcol" ->
      Graphcol.spec { Graphcol.vertices = 16; edges = 28; colors = 3; seed = 7 }
  | "uts" -> Uts.spec { Uts.b0 = 64; m = 4; q = 0.24; seed = 5 }
  | "binomial" -> Binomial.spec { Binomial.n = 16; k = 7 }
  | "minmax" -> Minmax.spec { Minmax.size = 3 }
  | _ -> invalid_arg ("Sweep.quick_spec: unknown benchmark " ^ name)

let spec_of ctx (entry : Registry.entry) =
  let name = entry.Registry.name in
  match Mutex.protect ctx.lock (fun () -> Hashtbl.find_opt ctx.specs name) with
  | Some spec -> spec
  | None ->
      (* built outside the lock (construction may be expensive); a racing
         domain at worst builds the same deterministic spec twice and the
         first insertion wins *)
      let spec =
        if ctx.quick then
          match quick_spec name with
          | spec -> spec
          | exception Invalid_argument _ -> (
              (* runtime-loaded workload: its reduced scale comes from the
                 spec block's quick inputs, via the attached DSL *)
              match entry.Registry.dsl with
              | Some dsl ->
                  let p, roots = dsl ~quick:true in
                  let args =
                    match roots with r :: _ -> Array.to_list r | [] -> []
                  in
                  let s = Vc_core.Compile.spec_of_program ~name p ~args in
                  { s with Vc_core.Spec.roots = roots }
              | None -> entry.Registry.spec ())
        else entry.Registry.spec ()
      in
      Mutex.protect ctx.lock (fun () ->
          match Hashtbl.find_opt ctx.specs name with
          | Some spec -> spec
          | None ->
              Hashtbl.add ctx.specs name spec;
              spec)

let width_on ctx entry (machine : Vc_mem.Machine.t) =
  let spec = spec_of ctx entry in
  Vc_simd.Isa.lanes machine.Vc_mem.Machine.isa
    (Vc_core.Schema.lane_kind spec.Vc_core.Spec.schema)

let blocks_of ctx (entry : Registry.entry) =
  if ctx.quick then
    List.filter (fun b -> b <= 4096) entry.Registry.sweep_blocks
  else entry.Registry.sweep_blocks

(* The disk-cache encoding of modeled points predates [point]; it must
   stay byte-identical so existing caches remain warm.  Fields a point's
   executor ignores are blanked (block for seq/strawman/bfs, compaction
   for unblocked and wall points, machine for wall points), so
   equivalent points share one key.  Blocked modeled points record the
   compaction engine {!Vc_core.Engine.run} actually selects, so an
   explicit request for the machine's default engine (Fig. 16) shares the
   plain hybrid run's key (Table 2) instead of simulating it twice. *)
let key_string ctx p =
  let wall = p.engine <> Model in
  let block, compact =
    match p.strategy with
    | Seq | Strawman -> (0, "")
    | Bfs | Noreexp | Reexp ->
        ( (if p.strategy = Bfs then 0 else p.block),
          if wall then ""
          else
            match p.compact with
            | Some c -> Vc_simd.Compact.name c
            | None ->
                let width = width_on ctx p.entry p.machine in
                Vc_simd.Compact.(name (default_for p.machine.Vc_mem.Machine.isa ~width)) )
  in
  Printf.sprintf "%s|%s|%s|%s%s|%d|%s|%s"
    (if ctx.quick then "quick" else "full")
    p.entry.Registry.name
    (if wall then "" else p.machine.Vc_mem.Machine.name)
    (strategy_name p.strategy)
    (match p.domains with Some d -> Printf.sprintf "+d%d" d | None -> "")
    block compact (engine_name p.engine)

(* DSL benchmarks run on the wall-clock backends as blocked IR (the pair
   where interpreted vs compiled dispatch actually differs), the rest as
   their native spec. *)
let backend_source ctx (entry : Registry.entry) =
  match entry.Registry.dsl with
  | Some dsl ->
      let program, roots = dsl ~quick:ctx.quick in
      (Vc_core.Backend.Ir (Vc_core.Transform.transform program), roots)
  | None ->
      let spec = spec_of ctx entry in
      (Vc_core.Backend.Native spec, spec.Vc_core.Spec.roots)

let exec ctx ?telemetry ?(faults = Vc_core.Fault.none)
    ?(budgets = Vc_core.Supervisor.no_budgets) ?max_tasks p =
  Result.iter_error (fun msg -> invalid_arg ("Sweep.exec: " ^ msg)) (validate p);
  let policy =
    if p.strategy = Bfs then Vc_core.Policy.Bfs_only
    else Vc_core.Policy.Hybrid { max_block = p.block; reexpand = p.strategy <> Noreexp }
  in
  let spec () = spec_of ctx p.entry in
  let machine = p.machine and compact = p.compact in
  match (p.engine, p.strategy, p.domains) with
  | Model, Seq, _ ->
      Report (Vc_core.Seq_exec.run ?max_tasks ~spec:(spec ()) ~machine (), None)
  | Model, Strawman, _ ->
      Report (Vc_core.Strawman.run ?max_tasks ~spec:(spec ()) ~machine (), None)
  | Model, _, None ->
      let r =
        Vc_core.Engine.run ?compact ?max_tasks ?telemetry ~faults ~budgets
          ~spec:(spec ()) ~machine ~strategy:policy ()
      in
      Report (r, None)
  | Model, _, Some domains ->
      let d =
        Vc_core.Domain_sched.run ?compact ?max_tasks ?telemetry ~faults ~budgets
          ~spec:(spec ()) ~machine ~strategy:policy ~domains ()
      in
      Report (d.report, Some d)
  | (Blocked | Compiled), _, _ ->
      let source, roots = backend_source ctx p.entry in
      let max_tasks =
        Option.value max_tasks ~default:Vc_core.Backend.default_opts.max_tasks
      in
      let opts =
        { Vc_core.Backend.strategy = policy; max_tasks; telemetry; faults;
          budgets; domains = p.domains }
      in
      let backend =
        if p.engine = Blocked then Vc_core.Backend.interp else Vc_core.Backend.compiled
      in
      Wall (Vc_core.Backend.run ~opts backend source ~roots)

let run ctx p =
  let key = key_string ctx p in
  match Mutex.protect ctx.lock (fun () -> Hashtbl.find_opt ctx.runs key) with
  | Some r -> r
  | None -> (
      (* only modeled points persist: wall-clock numbers are a property
         of the host, and the cache would serve one machine's timings as
         another's measurements *)
      let disk = if p.engine = Model then ctx.disk else None in
      let cached = Option.bind disk (fun d -> Run_cache.find d key) in
      (* execute outside the lock; concurrent prewarm tasks never share a
         key, so duplicated work is possible only on racing demand paths
         and is resolved by first-insertion-wins *)
      let r =
        match cached with
        | Some r -> Report (r, None)
        | None -> (
            match exec ctx ~faults:ctx.faults ~budgets:ctx.budgets p with
            | Report (r, Some _) -> Report (r, None)
            | r -> r)
      in
      Mutex.protect ctx.lock @@ fun () ->
      match Hashtbl.find_opt ctx.runs key with
      | Some r -> r
      | None ->
          Hashtbl.add ctx.runs key r;
          (match (cached, r) with
          | Some _, _ -> ctx.disk_hits <- ctx.disk_hits + 1
          | None, Report (report, _) ->
              ctx.simulated <- ctx.simulated + 1;
              (* fault-armed runs recover exact reducers but degraded
                 (partly scalar) cost numbers: never persist them *)
              if not (Vc_core.Fault.armed ctx.faults) then
                Option.iter (fun d -> Run_cache.add d key report) disk
          | None, Wall _ -> ());
          r)

let runs ctx =
  Mutex.protect ctx.lock (fun () ->
      Hashtbl.fold
        (fun k r acc -> match r with Report (r, _) -> (k, r) :: acc | Wall _ -> acc)
        ctx.runs [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The named points the tables, figures and claims read. *)
let report ctx p =
  match run ctx p with
  | Report (r, _) -> r
  | Wall _ -> invalid_arg "Sweep: not a modeled point"

let modeled entry machine strategy = { (point entry) with machine; strategy }
let seq ctx e m = report ctx (modeled e m Seq)
let bfs_only ctx e m = report ctx (modeled e m Bfs)
let strawman ctx e m = report ctx (modeled e m Strawman)

let hybrid ctx e m ~reexpand ~block =
  report ctx { (modeled e m (if reexpand then Reexp else Noreexp)) with block }

(* [domains = 1] is NOT the plain {!hybrid} run: it executes the same
   fixed chunk set in one domain, so the d1/d2/d4 family shares
   everything but the schedule model and the speedup column reads as pure
   scaling.  The strategy key carries the domain count. *)
let hybrid_domains ctx e m ~block ~domains =
  report ctx { (modeled e m Reexp) with block; domains = Some domains }

let with_compaction ctx e m ~compact ~block =
  report ctx { (modeled e m Reexp) with block; compact = Some compact }

let speedup ctx entry machine report =
  Vc_core.Report.speedup ~baseline:(seq ctx entry machine) report

let backend_run ctx entry ~engine ~block =
  match engine_of_string engine with
  | Some ((Blocked | Compiled) as engine) -> (
      match run ctx { (point entry) with engine; block } with
      | Wall r -> r
      | Report _ -> assert false)
  | Some Model | None -> invalid_arg ("Sweep.backend_run: unknown engine " ^ engine)

let best ctx entry machine ~reexpand =
  let candidates =
    List.map
      (fun block ->
        let r = hybrid ctx entry machine ~reexpand ~block in
        (block, r, speedup ctx entry machine r))
      (blocks_of ctx entry)
  in
  match candidates with
  | [] -> invalid_arg "Sweep.best: empty block grid"
  | first :: rest ->
      let block, report, _ =
        List.fold_left
          (fun (bb, br, bs) (block, r, s) ->
            if s > bs then (block, r, s) else (bb, br, bs))
          first rest
      in
      (block, report)

(* ------------------------------------------------------------------ *)
(* Parallel prewarm: enumerate the sweep space the artifact generators
   demand, fan the missing points out over the domain pool, and let the
   (serial) generators run against a fully warm memo table.

   Benchmarks whose strawman / compaction points the artifacts actually
   read (Ablation A1, Fig. 16, the claims checker). *)
let strawman_benchmarks = [ "fib"; "nqueens" ]
let compaction_benchmarks = [ "fib"; "nqueens" ]

type scope = [ `Seq_only | `Full ]

let prewarm ?(scope = `Full) ctx =
  (* build every spec in the calling domain so pool workers (and their
     closures) only read the spec table *)
  List.iter (fun e -> ignore (spec_of ctx e : Vc_core.Spec.t)) Registry.all;
  (* Containment boundary: a point that fails is recorded and the rest of
     the sweep proceeds; deadline-like budget violations stay fatal and
     propagate out of Pool.run_collect immediately. *)
  let submit tasks =
    let fs = Pool.run_collect ~jobs:ctx.jobs tasks in
    if fs <> [] then
      Mutex.protect ctx.lock (fun () -> ctx.failed <- List.rev_append fs ctx.failed)
  in
  let each entries points =
    List.concat_map (fun e -> List.concat_map (points e) machines) entries
  in
  let named = List.map Registry.find in
  let task p () = ignore (run ctx p : result) in
  let seq_points = each Registry.all (fun e m -> [ task (modeled e m Seq) ]) in
  match scope with
  | `Seq_only -> submit seq_points
  | `Full ->
      let grid e m =
        task (modeled e m Bfs)
        :: List.concat_map
             (fun block ->
               [ task { (modeled e m Noreexp) with block };
                 task { (modeled e m Reexp) with block } ])
             (blocks_of ctx e)
      in
      let strawman_points =
        each (named strawman_benchmarks) (fun e m -> [ task (modeled e m Strawman) ])
      in
      submit (seq_points @ each Registry.all grid @ strawman_points);
      (* Fig. 16 / claims compare the default engine (already a
         plain-hybrid cache hit thanks to the normalized key) against
         sequential compaction at the best re-expansion block — which is
         only known once the hybrid grid is in, hence the second wave. *)
      submit
        (each (named compaction_benchmarks) (fun e m ->
             [
               (fun () ->
                 let block, _ = best ctx e m ~reexpand:true in
                 let compact = Vc_simd.Compact.Sequential in
                 ignore (with_compaction ctx e m ~compact ~block));
             ]))
