open Vc_bench

type key = {
  bench : string;
  machine : string;
  strategy : string;
  block : int;
  compact : string;
  engine : string;
}

type ctx = {
  quick : bool;
  jobs : int;
  budgets : Vc_core.Supervisor.budgets;
  faults : Vc_core.Fault.plan;
  retries : int;
  specs : (string, Vc_core.Spec.t) Hashtbl.t;
  runs : (key, Vc_core.Report.t) Hashtbl.t;
  backend_runs : (string * string * int, Vc_core.Backend.result) Hashtbl.t;
  lock : Mutex.t;
  disk : Run_cache.t option;
  mutable simulated : int;
  mutable disk_hits : int;
  mutable failed : Pool.failure list;
}

let create ?quick ?(jobs = 1) ?(cache_dir = None)
    ?(budgets = Vc_core.Supervisor.no_budgets) ?(faults = Vc_core.Fault.none)
    ?(retries = 0) () =
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
    retries;
    specs = Hashtbl.create 16;
    runs = Hashtbl.create 256;
    backend_runs = Hashtbl.create 32;
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

let key_string ctx key =
  Printf.sprintf "%s|%s|%s|%s|%d|%s|%s"
    (if ctx.quick then "quick" else "full")
    key.bench key.machine key.strategy key.block key.compact key.engine

let persist ctx = Option.iter (Run_cache.persist ~faults:ctx.faults) ctx.disk

(* The supervised-engine knobs every engine point shares.  Fault-armed
   runs recover to correct reducer values but with degraded (partly
   scalar) cost numbers, so they must never be persisted — a later
   fault-free process would read them as genuine measurements. *)
let engine_args ctx =
  ( ctx.faults,
    ctx.budgets.Vc_core.Supervisor.deadline,
    ctx.budgets.Vc_core.Supervisor.wall_deadline,
    ctx.budgets.Vc_core.Supervisor.max_live_frames )

let runs ctx =
  Mutex.protect ctx.lock (fun () ->
      Hashtbl.fold (fun k r acc -> (k, r) :: acc) ctx.runs [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let machines = [ Vc_mem.Machine.xeon_e5; Vc_mem.Machine.xeon_phi ]

(* Small workloads for smoke runs and the bechamel harness. *)
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

(* The compaction engine {!Vc_core.Engine.run} actually selects when none
   is given.  Recorded in every engine-run key so that an explicit
   [with_compaction] request for the machine's default engine resolves to
   the same key as the plain hybrid run — previously those were two keys
   ({strategy="reexp"; compact=<name>} vs compact="") and the identical
   simulation ran twice (e.g. Fig. 16 vs Table 2 points). *)
let resolved_compact ctx entry (machine : Vc_mem.Machine.t) =
  Vc_simd.Compact.name
    (Vc_simd.Compact.default_for machine.Vc_mem.Machine.isa
       ~width:(width_on ctx entry machine))

let cached ctx key f =
  match Mutex.protect ctx.lock (fun () -> Hashtbl.find_opt ctx.runs key) with
  | Some r -> r
  | None -> (
      let from_disk =
        match ctx.disk with
        | Some d -> Run_cache.find d (key_string ctx key)
        | None -> None
      in
      (* simulate outside the lock; concurrent prewarm tasks never share a
         key, so duplicated work is possible only on racing demand paths
         and is resolved by first-insertion-wins *)
      let fresh, r = match from_disk with Some r -> (false, r) | None -> (true, f ()) in
      Mutex.protect ctx.lock @@ fun () ->
      match Hashtbl.find_opt ctx.runs key with
      | Some r -> r
      | None ->
          Hashtbl.add ctx.runs key r;
          if fresh then begin
            ctx.simulated <- ctx.simulated + 1;
            if not (Vc_core.Fault.armed ctx.faults) then
              Option.iter (fun d -> Run_cache.add d (key_string ctx key) r) ctx.disk
          end
          else ctx.disk_hits <- ctx.disk_hits + 1;
          r)

let seq ctx entry (machine : Vc_mem.Machine.t) =
  let key =
    {
      bench = entry.Registry.name;
      machine = machine.Vc_mem.Machine.name;
      strategy = "seq";
      block = 0;
      compact = "";
      engine = "engine";
    }
  in
  cached ctx key (fun () -> Vc_core.Seq_exec.run ~spec:(spec_of ctx entry) ~machine ())

let bfs_only ctx entry (machine : Vc_mem.Machine.t) =
  let key =
    {
      bench = entry.Registry.name;
      machine = machine.Vc_mem.Machine.name;
      strategy = "bfs";
      block = 0;
      compact = resolved_compact ctx entry machine;
      engine = "engine";
    }
  in
  cached ctx key (fun () ->
      let faults, deadline, wall_deadline, max_live_frames = engine_args ctx in
      Vc_core.Engine.run ~faults ?deadline ?wall_deadline ?max_live_frames
        ~spec:(spec_of ctx entry) ~machine ~strategy:Vc_core.Policy.Bfs_only ())

let hybrid ctx entry (machine : Vc_mem.Machine.t) ~reexpand ~block =
  let key =
    {
      bench = entry.Registry.name;
      machine = machine.Vc_mem.Machine.name;
      strategy = (if reexpand then "reexp" else "noreexp");
      block;
      compact = resolved_compact ctx entry machine;
      engine = "engine";
    }
  in
  cached ctx key (fun () ->
      let faults, deadline, wall_deadline, max_live_frames = engine_args ctx in
      Vc_core.Engine.run ~faults ?deadline ?wall_deadline ?max_live_frames
        ~spec:(spec_of ctx entry) ~machine
        ~strategy:(Vc_core.Policy.Hybrid { max_block = block; reexpand })
        ())

(* The hybrid multicore × SIMD scheduler point.  Note [domains = 1] is
   NOT the plain {!hybrid} run: it executes the same fixed chunk set in
   one domain, so the d1/d2/d4 family shares everything but the schedule
   model and the speedup column reads as pure scaling.  The strategy key
   carries the domain count — modeled cycles depend on it. *)
let hybrid_domains ctx entry (machine : Vc_mem.Machine.t) ~block ~domains =
  let key =
    {
      bench = entry.Registry.name;
      machine = machine.Vc_mem.Machine.name;
      strategy = Printf.sprintf "reexp+d%d" domains;
      block;
      compact = resolved_compact ctx entry machine;
      engine = "engine";
    }
  in
  cached ctx key (fun () ->
      let faults, deadline, wall_deadline, max_live_frames = engine_args ctx in
      let result =
        Vc_core.Domain_sched.run ~faults ?deadline ?wall_deadline
          ?max_live_frames ~spec:(spec_of ctx entry) ~machine
          ~strategy:(Vc_core.Policy.Hybrid { max_block = block; reexpand = true })
          ~domains ()
      in
      result.Vc_core.Domain_sched.report)

let with_compaction ctx entry (machine : Vc_mem.Machine.t) ~compact ~block =
  let key =
    {
      bench = entry.Registry.name;
      machine = machine.Vc_mem.Machine.name;
      strategy = "reexp";
      block;
      compact = Vc_simd.Compact.name compact;
      engine = "engine";
    }
  in
  cached ctx key (fun () ->
      let faults, deadline, wall_deadline, max_live_frames = engine_args ctx in
      Vc_core.Engine.run ~compact ~faults ?deadline ?wall_deadline ?max_live_frames
        ~spec:(spec_of ctx entry) ~machine
        ~strategy:(Vc_core.Policy.Hybrid { max_block = block; reexpand = true })
        ())

let strawman ctx entry (machine : Vc_mem.Machine.t) =
  let key =
    {
      bench = entry.Registry.name;
      machine = machine.Vc_mem.Machine.name;
      strategy = "strawman";
      block = 0;
      compact = "";
      engine = "engine";
    }
  in
  cached ctx key (fun () -> Vc_core.Strawman.run ~spec:(spec_of ctx entry) ~machine ())

let speedup ctx entry machine report =
  Vc_core.Report.speedup ~baseline:(seq ctx entry machine) report

(* ------------------------------------------------------------------ *)
(* Wall-clock backend points ({!Vc_core.Backend}).  These are memoized
   in-memory only: their [wall_seconds] is a property of the host the
   process runs on, so persisting them through the disk cache would
   serve one machine's timings as another's measurements. *)

let backend_source ctx (entry : Registry.entry) =
  match entry.Registry.dsl with
  | Some dsl ->
      (* DSL benchmarks run as blocked IR — the pair where interpreted
         vs compiled dispatch actually differs *)
      let program, roots = dsl ~quick:ctx.quick in
      (Vc_core.Backend.Ir (Vc_core.Transform.transform program), roots)
  | None ->
      let spec = spec_of ctx entry in
      (Vc_core.Backend.Native spec, spec.Vc_core.Spec.roots)

let backend_of_name engine =
  match Vc_core.Backend.find engine with
  | Some b -> b
  | None -> invalid_arg ("Sweep.backend_run: unknown engine " ^ engine)

let backend_run ctx (entry : Registry.entry) ~engine ~block =
  let memo_key = (entry.Registry.name, engine, block) in
  match
    Mutex.protect ctx.lock (fun () -> Hashtbl.find_opt ctx.backend_runs memo_key)
  with
  | Some r -> r
  | None ->
      let backend = backend_of_name engine in
      let source, roots = backend_source ctx entry in
      let opts =
        {
          Vc_core.Backend.default_opts with
          strategy = Vc_core.Policy.Hybrid { max_block = block; reexpand = true };
          faults = ctx.faults;
          wall_deadline = ctx.budgets.Vc_core.Supervisor.wall_deadline;
          max_live_frames = ctx.budgets.Vc_core.Supervisor.max_live_frames;
        }
      in
      let r = Vc_core.Backend.run ~opts backend source ~roots in
      Mutex.protect ctx.lock (fun () ->
          match Hashtbl.find_opt ctx.backend_runs memo_key with
          | Some r -> r
          | None ->
              Hashtbl.add ctx.backend_runs memo_key r;
              r)

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

let seq_points ctx =
  List.concat_map
    (fun entry ->
      List.map (fun m () -> ignore (seq ctx entry m : Vc_core.Report.t)) machines)
    Registry.all

let engine_points ctx =
  List.concat_map
    (fun entry ->
      List.concat_map
        (fun m ->
          (fun () -> ignore (bfs_only ctx entry m : Vc_core.Report.t))
          :: List.concat_map
               (fun block ->
                 [
                   (fun () ->
                     ignore (hybrid ctx entry m ~reexpand:false ~block : Vc_core.Report.t));
                   (fun () ->
                     ignore (hybrid ctx entry m ~reexpand:true ~block : Vc_core.Report.t));
                 ])
               (blocks_of ctx entry))
        machines)
    Registry.all

let strawman_points ctx =
  List.concat_map
    (fun name ->
      let entry = Registry.find name in
      List.map (fun m () -> ignore (strawman ctx entry m : Vc_core.Report.t)) machines)
    strawman_benchmarks

(* Fig. 16 / claims compare the default engine (already a plain-hybrid
   cache hit thanks to the normalized key) against sequential compaction
   at the best re-expansion block — which is only known once the hybrid
   grid is in, hence the second wave. *)
let compaction_points ctx =
  List.concat_map
    (fun name ->
      let entry = Registry.find name in
      List.map
        (fun m () ->
          let block, _ = best ctx entry m ~reexpand:true in
          ignore
            (with_compaction ctx entry m ~compact:Vc_simd.Compact.Sequential ~block
              : Vc_core.Report.t))
        machines)
    compaction_benchmarks

let prewarm ?(scope = `Full) ctx =
  (* build every spec in the calling domain so pool workers (and their
     closures) only read the spec table *)
  List.iter (fun e -> ignore (spec_of ctx e : Vc_core.Spec.t)) Registry.all;
  (* Containment boundary: a point that still fails after [retries] is
     recorded and the rest of the sweep proceeds; budget violations stay
     fatal and propagate out of Pool.run_collect immediately. *)
  let submit tasks =
    let fs = Pool.run_collect ~retries:ctx.retries ~jobs:ctx.jobs tasks in
    if fs <> [] then
      Mutex.protect ctx.lock (fun () -> ctx.failed <- List.rev_append fs ctx.failed)
  in
  match scope with
  | `Seq_only -> submit (seq_points ctx)
  | `Full ->
      submit (seq_points ctx @ engine_points ctx @ strawman_points ctx);
      submit (compaction_points ctx)
