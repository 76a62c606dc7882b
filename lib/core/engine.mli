(** The blocked execution engine: breadth-first expansion, blocked
    depth-first execution, and re-expansion (paper §4), with the §5 SIMD
    implementation — SoA blocks, block reuse, stream compaction — charged
    to the cost model.

    The engine executes the real benchmark semantics (reducer values are
    exact and equal to {!Seq_exec}'s) while accounting every modeled
    instruction and memory access. *)

exception Oom of { live : int; limit : int }
(** Raised internally when breadth-first expansion exceeds the machine's
    live-thread limit; {!run} converts it to an OOM report (Table 2's OOM
    entries). *)

type ctx
(** A per-worker execution context: all block, frame, telemetry,
    reducer and budget state for one engine instance.  Contexts share
    nothing — each owns its {!Measure} (VM + cache hierarchy + address
    space), block pool and reducer set — so independent contexts may run
    concurrently on separate domains.  A context's telemetry hub is
    single-domain, though: never share one hub across contexts that run
    in parallel. *)

val make_ctx :
  ?compact:Vc_simd.Compact.engine ->
  ?max_tasks:int ->
  ?cutoff:int ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.plan ->
  ?budgets:Supervisor.budgets ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  strategy:Policy.strategy ->
  unit ->
  ctx
(** Build a fresh context with the same knobs (and defaults) as {!run}.
    The telemetry hub's clock is set to the context's modeled cycles. *)

val execute_frames :
  ctx -> roots:int array list -> depth:int -> target:int -> int array list * int
(** Execute [roots] as sibling frames at tree depth [depth] under the
    context's strategy (breadth-first expansion, blocked switch,
    re-expansion, task cut-off — exactly {!run}'s scheduling).  A
    breadth-first level of at least [target] frames is not stepped: it
    leaves the context, and its frames and depth are returned ({!run}
    passes [max_int]).  {!Domain_sched.run} expands its frontier this way
    on a [Bfs_only] context, whose levels never switch to blocked; base
    cases met on the way count in this context's report.  Returns
    [([], d)], [d] the depth of the last level, once the tree has
    completed.  Raises {!Oom} or a typed budget {!Vc_error.Error} like
    {!run}'s internals; vectorized-path faults degrade to the scalar path
    as usual. *)

val store : ctx -> Block.Store.t
(** The context's host-column store: every pooled block's rows live in
    columns taken from it (see {!Block}). *)

val modeled_cycles : ctx -> float
(** VM issue cycles plus memory-hierarchy penalty cycles so far. *)

val report_of : ctx -> strategy:string -> wall_seconds:float -> Report.t
(** Package the context's measurements as a report (the [strategy]
    string is recorded verbatim).  It does not flush the context's
    telemetry: flushing finalizes a sink such as
    {!Telemetry.chrome_sink}, so the caller flushes once, after its last
    event ({!run} and {!Domain_sched.run} do). *)

val run :
  ?compact:Vc_simd.Compact.engine ->
  ?max_tasks:int ->
  ?cutoff:int ->
  ?warm:bool ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.plan ->
  ?budgets:Supervisor.budgets ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  strategy:Policy.strategy ->
  unit ->
  Report.t
(** Execute [spec] under [strategy].  [compact] defaults to
    [Compact.default_for] the machine's ISA (Fig. 16 ablates this).
    [max_tasks] (default 200M) guards runaway specs: exceeding it raises
    a typed [Task_budget] {!Vc_error.Error}.  On OOM the returned report
    has [oom = true].

    [cutoff] enables the {e task cut-off} conventional task-parallel
    runtimes use: blocks of at most [cutoff] threads execute their subtrees
    sequentially (scalar) instead of continuing blocked execution.  The
    paper deliberately runs without a cut-off "to maximize vectorization
    opportunities" (§6.1); the ablation harness quantifies that choice.

    [telemetry] attaches a {!Telemetry} hub: the engine sets its clock to
    modeled cycles and emits [Level], [Switch], [Reexpand], [Compaction]
    and [Cache] events; the hub is flushed before the report is returned.
    Without it the instrumentation reduces to an enabled-flag test per
    level.

    [warm:true] measures a {e warm-cache} run: the whole execution runs
    once to populate the caches (its costs are discarded), then runs again
    over the same reused blocks and reports only the second pass — the
    paper's Table 2 footnote for minmax ("if the cache is warmed up for
    the kernel computation...").  Reducer values are from the measured
    pass only.

    {2 Supervised execution}

    [faults] (default {!Fault.none}) arms deterministic fault injection at
    the engine's compaction and block-allocation sites.  An injected — or
    organic, e.g. {!Vc_simd.Compact.Unsupported} — fault on the vectorized
    path quarantines the affected block and re-executes its outstanding frames
    on the scalar path, yielding reducer values and task counts exactly
    equal to a fault-free run (a [Fallback] telemetry event records each
    quarantine).

    [budgets] (default {!Supervisor.no_budgets}) holds cooperative
    budgets — [deadline] (modeled cycles), [wall_deadline] (seconds) and
    [max_live_frames] — checked at every level boundary; exceeding one
    raises a [Budget_exceeded] {!Vc_error.Error} (exit-code convention
    2).  [max_live_frames] is a user budget distinct from the machine's
    live-thread limit, which still produces an OOM report.
    {!Supervisor.run} turns these errors into a result. *)
