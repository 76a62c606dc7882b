(** Intra-run multicore × SIMD hybrid scheduler: one logical run split
    into a serial measured breadth-first expansion phase plus independent
    frontier chunks executed on real OCaml 5 domains with chunk stealing,
    each chunk in its own {!Engine.ctx}.

    {2 Determinism contract}

    All modeled quantities are a function of the chunk set, which is
    fixed by [chunks] (not by [domains]): the frontier expands to
    [4 × chunks] frames and is dealt round-robin, so every domain count
    sees the same chunks.  The modeled schedule — makespan, steal count,
    steal costs — comes from the deterministic {!Ws_sim} discrete-event
    simulation over measured per-chunk cycle costs (round-robin initial
    deques, mirroring the real dealing; 200 cycles per steal attempt,
    seed 1).  Real domains only provide wall-clock parallelism;
    [observed_steals] from the live deques is reported for transparency
    and feeds nothing modeled.

    Consequently the merged report is bit-identical across domain counts
    except [strategy] (carries ["+dN"]), [cycles] (expansion + modeled
    makespan), the derived [cpi], [space_peak] (up to [domains] chunks
    live at once) and [wall_seconds].

    Budgets ([budgets], [max_tasks]) apply per
    context: the expansion phase and each chunk check them independently.
    So do the wall-clock backends: their expansion is the first phase of
    [Backend]'s pending-level loop and checks every budget per level.
    Fault plans are {!Fault.split} per chunk index, so injected fault
    patterns are schedule-independent too.  Errors are propagated
    deterministically: every chunk runs to completion and the
    lowest-index chunk's exception (if any) is re-raised after the join
    ({!run_chunks}). *)

type result = {
  report : Report.t;  (** merged cross-context report (see above) *)
  domains : int;
  chunks : int;
      (** chunks actually executed (0 if the tree fit in expansion: then
          the frontier is empty and the makespan 0) *)
  frontier : int;  (** frontier frames split across chunks *)
  frontier_depth : int;
  expansion_cycles : float;  (** serial expansion-phase modeled cycles *)
  work_cycles : float;  (** sum of per-chunk modeled cycles *)
  makespan_cycles : float;  (** modeled parallel makespan over the chunks *)
  modeled_steals : int;
  modeled_failed_steals : int;
  observed_steals : int;  (** real-deque steals (informational only) *)
}

val default_chunks : int
(** 32 — enough slack for load balancing at the domain counts commodity
    hardware offers, few enough that chunk overhead stays negligible. *)

val run_chunks :
  domains:int ->
  chunks:int ->
  telemetry:Telemetry.t ->
  faults:Fault.plan ->
  'f list ->
  (int -> telemetry:Telemetry.t -> faults:Fault.plan -> 'f list -> 'r) ->
  'r array * int
(** The one chunked-domains driver: both this scheduler and {!Backend}'s
    domains mode run their chunks through it.
    [run_chunks ~domains ~chunks ~telemetry ~faults frames run] deals
    [frames] round-robin into [min chunks (List.length frames)] chunks
    (frontier order kept inside each chunk) and calls
    [run idx ~telemetry:hub ~faults:slice chunk] once per chunk, where
    [hub] is the chunk's private {!Telemetry.chunk_hub} of [telemetry] and
    [slice] is [Fault.split faults ~salt:idx].  The chunks run on
    [min domains nchunks] workers, capped at
    [Domain.recommended_domain_count ()]: the calling domain plus spawned
    ones, each popping its own deque and stealing from the others when
    empty.  After the join every chunk's recovery events are replayed
    onto [telemetry] in chunk-index order; then, if any chunk raised, the
    lowest-index chunk's exception is re-raised (every chunk has run to
    completion), whichever domain hit it.  Otherwise returns the results
    in chunk-index order — independent of the domain count — and the
    number of real steals.  No frames, no chunks. *)

val run :
  ?compact:Vc_simd.Compact.engine ->
  ?max_tasks:int ->
  ?cutoff:int ->
  ?chunks:int ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.plan ->
  ?budgets:Supervisor.budgets ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  strategy:Policy.strategy ->
  domains:int ->
  unit ->
  result
(** Execute [spec] under [strategy] across [domains] OCaml domains (the
    calling domain is worker 0; [domains = 1] runs the chunks in order
    without spawning).  Engine knobs are per context, as {!Engine.run}.
    [chunks] (default {!default_chunks}) fixes the chunk count.
    [telemetry] receives the expansion phase's events, then after the
    join every chunk's [Fault] and [Fallback] events (chunk-index order,
    {!Telemetry.chunk_hub}) and one [Telemetry.Steal] per modeled steal,
    so {!Supervisor.run} counts recovery across all contexts.  Raises
    [Invalid_argument] if [domains] or [chunks] is not positive; budget
    {!Vc_error.Error}s (task limits included) propagate (OOM yields an
    [oom] report like {!Engine.run}). *)

val speedup : baseline:Report.t -> result -> float
(** Modeled speedup of the hybrid run over [baseline] (0 on OOM). *)
