(** Execution of benchmark × engine × machine × strategy × block-size
    points: fresh ({!exec}) or memoized ({!run}).

    Every caller that runs a benchmark — the CLI, the serve daemon, the
    load generator, the tables and figures — builds a {!point} and hands
    it to one of the two; the engine family is a value the caller picks.
    One context computes each point once and the harness reuses it across
    Tables 1–3 and Figures 9–16.  [quick] mode substitutes small
    workloads (for [--quick] smoke runs and the test suites).

    The context is domain-safe: the memo table is mutex-guarded, and
    {!prewarm} fans the independent simulations out over a
    {!Pool}-managed set of OCaml domains, after which the (serial)
    artifact generators run entirely against warm entries.  With a
    [cache_dir], modeled points additionally persist across processes via
    {!Run_cache} — call {!persist} before exiting. *)

type engine = Model | Blocked | Compiled
(** The cost-model simulator (["engine"], modeled cycles) or a wall-clock
    backend (["blocked"] closure interpreter, ["compiled"] SoA kernels). *)

val engines : engine list
val engine_name : engine -> string
val engine_of_string : string -> engine option

type strategy = Seq | Strawman | Bfs | Noreexp | Reexp

val strategies : strategy list
val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option

type point = {
  entry : Vc_bench.Registry.entry;
  engine : engine;
  machine : Vc_mem.Machine.t;  (** wall engines ignore it *)
  strategy : strategy;  (** [Seq]/[Strawman] run on [Model] only *)
  block : int;  (** hybrid max block (noreexp / reexp) *)
  compact : Vc_simd.Compact.engine option;  (** [Model] only; [None] = default *)
  domains : int option;
      (** [Some n]: the chunked multicore run ({!Vc_core.Domain_sched} on
          [Model]); [Some 1] is {e not} the [None] point *)
}

val point : Vc_bench.Registry.entry -> point
(** [Model], E5, [Reexp] at block 256, default compaction, one context;
    override with [{ (point e) with ... }]. *)

val validate : point -> (unit, string) result
(** Rejects a block size below 1, a non-positive domain count, and
    [Seq]/[Strawman] with [domains] or a wall engine.  Messages name the [vcilk run] flags. *)

type result =
  | Report of Vc_core.Report.t * Vc_core.Domain_sched.result option
      (** a [Model] point's report, with the chunked run for [domains] *)
  | Wall of Vc_core.Backend.result

type counts =
  { reducers : (string * int) list; tasks : int; base_tasks : int; max_depth : int }

val counts : result -> counts
(** The fields every engine family computes bit-equal. *)

type ctx

val create :
  ?quick:bool ->
  ?jobs:int ->
  ?cache_dir:string option ->
  ?budgets:Vc_core.Supervisor.budgets ->
  ?faults:Vc_core.Fault.plan ->
  unit ->
  ctx
(** [quick] defaults to the [VC_BENCH_QUICK] environment variable.
    [jobs] (default 1) is the domain count used by {!prewarm}.
    [cache_dir] (default [None] = no persistence; the CLI passes
    [Some ".vc-cache"]) roots the on-disk run cache.

    [budgets] (default {!Vc_core.Supervisor.no_budgets}) applies the
    deadline / wall-clock / live-frame budgets to every engine point;
    a violation is fatal and propagates (exit-code 2 convention).
    [faults] arms fault injection in every engine point and the disk
    cache; fault-armed contexts never write the persistent cache (their
    recovered runs carry degraded cost numbers). *)

val quick : ctx -> bool
val jobs : ctx -> int

val simulations : ctx -> int
(** Fresh engine/sequential/strawman simulations executed by this context
    (excludes memo and disk-cache hits) — a warm rerun reports 0. *)

val cache_hits : ctx -> int
(** Points served from the persistent disk cache. *)

val failures : ctx -> Pool.failure list
(** Sweep points that failed and were contained by {!prewarm}
    (chronological).  Empty on a healthy sweep.  A contained point is
    re-attempted on demand if a generator later reads it. *)

val key_string : ctx -> point -> string
(** The memo and disk-cache key: scale, bench, machine, strategy (["+dN"]
    with domains), block, resolved compaction engine, engine family.
    Fields the executor ignores are blanked, so equivalent points share
    a key. *)

val persist : ctx -> unit
(** Flush newly simulated points to the disk cache (no-op without one). *)

val runs : ctx -> (string * Vc_core.Report.t) list
(** Every memoized modeled point with its {!key_string}, sorted by key —
    deterministic regardless of the schedule that produced it. *)

val machines : Vc_mem.Machine.t list
(** E5 and Phi, in that order. *)

val spec_of : ctx -> Vc_bench.Registry.entry -> Vc_core.Spec.t
(** The entry's spec at this context's scale (cached). *)

val width_on : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> int
(** SIMD lanes the benchmark's lane kind yields on the machine (Table 1's
    vector widths). *)

val blocks_of : ctx -> Vc_bench.Registry.entry -> int list
(** The block-size grid swept for this benchmark. *)

(** {1 Execution} *)

val exec :
  ctx ->
  ?telemetry:Vc_core.Telemetry.t ->
  ?faults:Vc_core.Fault.plan ->
  ?budgets:Vc_core.Supervisor.budgets ->
  ?max_tasks:int ->
  point ->
  result
(** Execute the point fresh at this context's scale: the one dispatch
    over {!Vc_core.Seq_exec}, {!Vc_core.Strawman}, {!Vc_core.Engine},
    {!Vc_core.Domain_sched} and {!Vc_core.Backend}.  [faults] and
    [budgets] default to none (seq/strawman take neither), [max_tasks] to
    each executor's default.  Wrap it in {!Vc_core.Supervisor.run} to
    count recovery.  Raises [Invalid_argument] on a point {!validate}
    rejects, {!Vc_core.Vc_error.Error} on budget violations and
    unrecovered faults. *)

val run : ctx -> point -> result
(** {!exec} under the context's faults and budgets, memoized in one table
    keyed by {!key_string}.  Only [Model] points use the disk cache
    (never written from a fault-armed context): wall-clock numbers are
    host-local.  A domains point keeps only its merged report, the part
    that persists. *)

(** {2 Named points}: one-line constructors over {!run}. *)

val seq : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t
val bfs_only : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t
val strawman : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t
val hybrid :
  ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> reexpand:bool -> block:int ->
  Vc_core.Report.t

val hybrid_domains :
  ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> block:int -> domains:int ->
  Vc_core.Report.t
(** The re-expansion point with [domains = Some domains]. *)

val with_compaction :
  ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> compact:Vc_simd.Compact.engine ->
  block:int -> Vc_core.Report.t
(** Re-expansion with an explicit compaction engine (Fig. 16); the
    machine's default engine is a cache hit on the plain {!hybrid} run. *)

val speedup : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t -> float
(** Modeled speedup over the same benchmark's sequential run on the same
    machine. *)

val backend_source :
  ctx -> Vc_bench.Registry.entry -> Vc_core.Backend.source * int array list
(** The entry as a wall-clock backend source at this context's scale:
    blocked IR plus roots when it has a DSL form, its native spec
    otherwise. *)

val backend_run :
  ctx -> Vc_bench.Registry.entry -> engine:string -> block:int -> Vc_core.Backend.result
(** The re-expansion point at [block] on the wall engine named [engine]
    (["blocked"] | ["compiled"]); [Invalid_argument] on any other name. *)

val best :
  ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> reexpand:bool ->
  int * Vc_core.Report.t
(** (block size, report) maximizing modeled speedup over the grid. *)

type scope = [ `Seq_only | `Full ]

val prewarm : ?scope:scope -> ctx -> unit
(** Simulate every point the artifact generators will demand, in parallel
    over [jobs ctx] domains (serially, spawning nothing, when [jobs = 1]).
    [`Seq_only] covers Table 1 / Figure 9 (sequential baselines only);
    [`Full] (default) covers Tables 1–3, Figures 9–16, Ablation A1, and
    the claims checker.  Points already memoized or in the disk cache are
    skipped.  The resulting reports are identical to what a serial
    demand-driven run computes ({!runs} compares equal under
    {!Vc_core.Report.equal}). *)
