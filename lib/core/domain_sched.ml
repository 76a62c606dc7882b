(* Intra-run multicore × SIMD hybrid scheduler (the paper's §8 hybrid,
   executed for real).

   One run splits into a serial breadth-first expansion phase plus a set
   of independent chunks — frontier slices whose subtrees the language
   guarantees are disjoint — executed on real OCaml 5 domains with chunk
   stealing between their deques.  Every chunk runs in its own
   {!Engine.ctx} (own VM, cache hierarchy, address space, reducers,
   telemetry hub and fault sub-plan), so all modeled quantities are a
   function of the chunk set alone, never of which domain ran a chunk or
   in what order.

   Determinism contract: the chunk count is fixed (independent of the
   domain count), chunks are dealt round-robin in frontier order, and the
   modeled schedule — makespan, steals, steal costs — comes from the
   {!Ws_sim} discrete-event simulation over the measured per-chunk cycle
   costs, not from the real execution's timing.  Real domains provide
   wall-clock parallelism; their observed steal count is reported
   separately and feeds nothing that is cached, gated or compared.  The
   merged report is therefore bit-identical across domain counts except
   for the documented schedule-model fields: [strategy], [cycles], [cpi]
   and [space_peak] (see {!Report.merge}). *)

let log_src = Logs.Src.create "vc.domains" ~doc:"Hybrid domain scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_chunks = 32

(* The frontier target: a few frames per chunk so round-robin dealing has
   slack to balance uneven subtrees. *)
let frontier_target ~chunks = chunks * 4

type result = {
  report : Report.t;
  domains : int;
  chunks : int;
  frontier : int;
  frontier_depth : int;
  expansion_cycles : float;
  work_cycles : float;
  makespan_cycles : float;
  modeled_steals : int;
  modeled_failed_steals : int;
  observed_steals : int;
}

let strategy_name ~strategy ~domains =
  Printf.sprintf "%s+d%d" (Policy.name strategy) domains

(* Deal frames round-robin into [n] chunks, preserving frontier order
   inside each chunk.  Adjacent frontier frames have correlated subtree
   sizes, so spreading them evens the chunk costs, like random stealing
   would. *)
let deal frames n =
  let chunks = Array.make n [] in
  List.iteri (fun i f -> chunks.(i mod n) <- f :: chunks.(i mod n)) frames;
  Array.map List.rev chunks

let run_chunks ~domains ~chunks ~telemetry ~faults frames run =
  let chunk_roots = deal frames (min chunks (List.length frames)) in
  let nchunks = Array.length chunk_roots in
  let outs = Array.make nchunks None in
  (* Each chunk gets a private hub and its own fault slice, and whatever
     it raises is kept for after the join. *)
  let run_chunk idx =
    let ctel, replay = Telemetry.chunk_hub telemetry in
    let outcome =
      match
        run idx ~telemetry:ctel ~faults:(Fault.split faults ~salt:idx)
          chunk_roots.(idx)
      with
      | r -> Ok r
      | exception exn -> Error exn
    in
    outs.(idx) <- Some (outcome, replay)
  in
  let observed_steals = Atomic.make 0 in
  (* Real workers never outnumber the host's cores: oversubscribed
     domains only add context switches.  Chunks and the modeled
     schedule still use [domains]. *)
  let workers =
    min domains (min nchunks (Domain.recommended_domain_count ()))
  in
  if workers <= 1 then
    for idx = 0 to nchunks - 1 do
      run_chunk idx
    done
  else begin
    (* Per-domain deques under one lock: each worker pops its own deque
       bottom-first; an empty worker scans the other deques in a fixed
       order and steals one chunk from a victim's top.  Chunks are dealt
       round-robin in index order, mirroring the Ws_sim Round_robin
       placement that models this schedule. *)
    let queues = Array.make workers [] in
    for idx = nchunks - 1 downto 0 do
      queues.(idx mod workers) <- idx :: queues.(idx mod workers)
    done;
    let lock = Mutex.create () in
    let pop_own w =
      Mutex.protect lock (fun () ->
          match queues.(w) with
          | [] -> None
          | idx :: rest ->
              queues.(w) <- rest;
              Some idx)
    in
    let steal w =
      Mutex.protect lock (fun () ->
          let rec scan k =
            if k >= workers then None
            else
              let victim = (w + k) mod workers in
              match List.rev queues.(victim) with
              | [] -> scan (k + 1)
              | idx :: rest_rev ->
                  queues.(victim) <- List.rev rest_rev;
                  Some idx
          in
          scan 1)
    in
    let rec worker_loop w =
      match pop_own w with
      | Some idx ->
          run_chunk idx;
          worker_loop w
      | None -> (
          match steal w with
          | Some idx ->
              Atomic.incr observed_steals;
              run_chunk idx;
              worker_loop w
          | None -> ())
    in
    let spawned =
      List.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker_loop (i + 1)))
    in
    worker_loop 0;
    List.iter Domain.join spawned
  end;
  (* Recovery events reach the caller's hub in chunk-index order; then the
     lowest-index chunk's exception wins, whichever domain hit it. *)
  let outs = Array.map Option.get outs in
  Array.iter (fun (_, replay) -> replay ()) outs;
  ( Array.map (function Ok r, _ -> r | Error exn, _ -> raise exn) outs,
    Atomic.get observed_steals )

let run ?compact ?max_tasks ?cutoff ?(chunks = default_chunks) ?telemetry
    ?(faults = Fault.none) ?budgets ~(spec : Spec.t)
    ~(machine : Vc_mem.Machine.t) ~(strategy : Policy.strategy) ~domains () =
  if domains < 1 then invalid_arg "Domain_sched.run: domains must be positive";
  if chunks < 1 then invalid_arg "Domain_sched.run: chunks must be positive";
  let wall_start = Unix.gettimeofday () in
  let sname = strategy_name ~strategy ~domains in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let make_engine_ctx ~telemetry ~faults () =
    Engine.make_ctx ?compact ?max_tasks ?cutoff ~telemetry ~faults
      ?budgets ~spec ~machine ~strategy ()
  in
  let result report ~nchunks ~frontier ~frontier_depth ~expansion_cycles
      (stats : Ws_sim.stats) ~observed_steals =
    {
      report;
      domains;
      chunks = nchunks;
      frontier;
      frontier_depth;
      expansion_cycles;
      work_cycles = stats.Ws_sim.total_work;
      makespan_cycles = stats.Ws_sim.makespan;
      modeled_steals = stats.Ws_sim.steals;
      modeled_failed_steals = stats.Ws_sim.failed_steals;
      observed_steals;
    }
  in
  (* ---- Phase 1: serial measured frontier expansion ---- *)
  let ectx = make_engine_ctx ~telemetry:tel ~faults () in
  match
    Engine.expand_frontier ectx ~roots:spec.Spec.roots
      ~target:(frontier_target ~chunks)
  with
  | exception Engine.Oom _ ->
      Telemetry.flush tel;
      result
        (Report.oom_placeholder ~benchmark:spec.Spec.name
           ~machine:machine.Vc_mem.Machine.name ~strategy:sname)
        ~nchunks:0 ~frontier:0 ~frontier_depth:0 ~expansion_cycles:0.0
        (Ws_sim.simulate ~workers:domains []) ~observed_steals:0
  | frontier_frames, frontier_depth ->
      let expansion_report =
        Engine.report_of ectx ~strategy:(sname ^ ":expand") ~wall_seconds:0.0
      in
      let nfrontier = List.length frontier_frames in
      (* ---- Phase 2: chunk execution on real domains (none when the
         whole tree fit in the expansion phase) ---- *)
      let run_chunk _ ~telemetry ~faults roots =
        let cctx = make_engine_ctx ~telemetry ~faults () in
        match Engine.execute_frames cctx ~roots ~depth:frontier_depth with
        | () -> Engine.report_of cctx ~strategy:"chunk" ~wall_seconds:0.0
        | exception Engine.Oom _ ->
            Report.oom_placeholder ~benchmark:spec.Spec.name
              ~machine:machine.Vc_mem.Machine.name ~strategy:"chunk"
      in
      let chunk_reports, observed_steals =
        run_chunks ~domains ~chunks ~telemetry:tel ~faults frontier_frames
          run_chunk
      in
      let nchunks = Array.length chunk_reports in
      let chunk_reports = Array.to_list chunk_reports in
      (* ---- Phase 3: deterministic schedule model + merge ---- *)
      let jobs =
        List.mapi (fun id (r : Report.t) -> { Ws_sim.id; cost = r.Report.cycles })
          chunk_reports
      in
      let stats = Ws_sim.simulate ~workers:domains jobs in
      List.iter
        (fun (thief, victim, chunk) ->
          Telemetry.emit tel (Telemetry.Steal { thief; victim; chunk }))
        stats.Ws_sim.steal_log;
      let cycles = expansion_report.Report.cycles +. stats.Ws_sim.makespan in
      (* Space model: the frontier is materialized when chunk execution
         starts, and up to [min domains nchunks] chunks are live at
         once — charge the largest ones (an upper bound that depends
         only on the chunk set and the domain count). *)
      let space_peak =
        let peaks =
          List.map (fun (r : Report.t) -> r.Report.space_peak) chunk_reports
          |> List.sort (fun a b -> compare b a)
        in
        let rec take n = function
          | x :: rest when n > 0 -> x + take (n - 1) rest
          | _ -> 0
        in
        max expansion_report.Report.space_peak
          (nfrontier + take (min domains nchunks) peaks)
      in
      let wall = Unix.gettimeofday () -. wall_start in
      let report =
        Report.merge ~reducers:spec.Spec.reducers ~strategy:sname ~cycles
          ~space_peak ~wall_seconds:wall
          (expansion_report :: chunk_reports)
      in
      Telemetry.flush tel;
      Log.debug (fun m ->
          m "%s/%s: %d chunks over %d domains, frontier %d@d%d, %d modeled steals"
            spec.Spec.name machine.Vc_mem.Machine.name nchunks domains nfrontier
            frontier_depth stats.Ws_sim.steals);
      result report ~nchunks ~frontier:nfrontier ~frontier_depth
        ~expansion_cycles:expansion_report.Report.cycles stats ~observed_steals

let speedup ~(baseline : Report.t) result =
  if result.report.Report.oom || result.report.Report.cycles <= 0.0 then 0.0
  else baseline.Report.cycles /. result.report.Report.cycles
