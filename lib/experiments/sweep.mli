(** Memoized execution of benchmark × machine × strategy × block-size
    points.

    Every table and figure of the evaluation reads from the same sweep
    space, so one context computes each point once and the harness reuses
    it across Tables 1–3 and Figures 9–16.  [quick] mode substitutes
    small workloads (for smoke runs and the bechamel timing harness).

    The context is domain-safe: the memo tables are mutex-guarded, and
    {!prewarm} fans the independent simulations out over a
    {!Pool}-managed set of OCaml domains, after which the (serial)
    artifact generators run entirely against warm entries.  With a
    [cache_dir], points additionally persist across processes via
    {!Run_cache} — call {!persist} before exiting. *)

type key = {
  bench : string;
  machine : string;
  strategy : string;
  block : int;
  compact : string;
      (** the {e resolved} compaction engine name for engine runs (bfs /
          noreexp / reexp), so an explicit request for the machine's
          default engine shares the plain hybrid run's key; [""] for
          seq / strawman runs, which do not compact *)
  engine : string;
      (** execution-engine family — ["engine"] for every cost-model point
          (the cost simulator is the only family the disk cache stores);
          the field keeps the key space partitioned from any future
          persisted backend family *)
}

type ctx

val create :
  ?quick:bool ->
  ?jobs:int ->
  ?cache_dir:string option ->
  ?budgets:Vc_core.Supervisor.budgets ->
  ?faults:Vc_core.Fault.plan ->
  ?retries:int ->
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
    recovered runs carry degraded cost numbers).  [retries] (default 0)
    is the per-task retry count {!prewarm} hands to the pool. *)

val quick : ctx -> bool
val jobs : ctx -> int

val simulations : ctx -> int
(** Fresh engine/sequential/strawman simulations executed by this context
    (excludes memo and disk-cache hits) — a warm rerun reports 0. *)

val cache_hits : ctx -> int
(** Points served from the persistent disk cache. *)

val failures : ctx -> Pool.failure list
(** Sweep points contained by {!prewarm} after exhausting their retries
    (chronological).  Empty on a healthy sweep.  A contained point is
    re-attempted on demand if a generator later reads it. *)

val key_string : ctx -> key -> string
(** The disk-cache encoding of [key]: the workload scale (quick/full)
    followed by the key fields. *)

val persist : ctx -> unit
(** Flush newly simulated points to the disk cache (no-op without one). *)

val runs : ctx -> (key * Vc_core.Report.t) list
(** Every memoized point, sorted by key — deterministic regardless of the
    schedule that produced it. *)

val machines : Vc_mem.Machine.t list
(** E5 and Phi, in that order. *)

val spec_of : ctx -> Vc_bench.Registry.entry -> Vc_core.Spec.t
(** The entry's spec at this context's scale (cached). *)

val width_on : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> int
(** SIMD lanes the benchmark's lane kind yields on the machine (Table 1's
    vector widths). *)

val blocks_of : ctx -> Vc_bench.Registry.entry -> int list
(** The block-size grid swept for this benchmark. *)

val seq : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t

val bfs_only : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t

val hybrid :
  ctx ->
  Vc_bench.Registry.entry ->
  Vc_mem.Machine.t ->
  reexpand:bool ->
  block:int ->
  Vc_core.Report.t

val hybrid_domains :
  ctx ->
  Vc_bench.Registry.entry ->
  Vc_mem.Machine.t ->
  block:int ->
  domains:int ->
  Vc_core.Report.t
(** The {!Vc_core.Domain_sched} hybrid multicore × SIMD point
    (re-expansion strategy, strategy key ["reexp+dN"]).  [domains = 1]
    executes the same fixed chunk set in one domain — deliberately NOT a
    {!hybrid} cache hit — so a d1/d2/d4 column reads as pure scaling of
    an identical workload.  Raises on a budget violation like the other
    engine points (pools contain it). *)

val with_compaction :
  ctx ->
  Vc_bench.Registry.entry ->
  Vc_mem.Machine.t ->
  compact:Vc_simd.Compact.engine ->
  block:int ->
  Vc_core.Report.t
(** Re-expansion strategy with an explicit compaction engine (Fig. 16).
    Requesting the machine's default engine is a cache hit on the plain
    {!hybrid} run at the same block. *)

val strawman : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t

val speedup : ctx -> Vc_bench.Registry.entry -> Vc_mem.Machine.t -> Vc_core.Report.t -> float
(** Modeled speedup over the same benchmark's sequential run on the same
    machine. *)

val backend_source :
  ctx -> Vc_bench.Registry.entry -> Vc_core.Backend.source * int array list
(** The entry as a wall-clock backend source at this context's scale:
    blocked IR plus root frames when the entry has a DSL form (where
    interpreted vs compiled dispatch actually differs), its native spec
    otherwise. *)

val backend_run :
  ctx ->
  Vc_bench.Registry.entry ->
  engine:string ->
  block:int ->
  Vc_core.Backend.result
(** One wall-clock backend point ([engine] = "blocked" | "compiled",
    re-expansion strategy at [block]), under the context's faults and
    wall/live budgets.  Memoized {e in-memory only} — wall-clock numbers
    are host-local and never touch the disk cache.  Raises
    [Invalid_argument] on an unknown engine name and {!Vc_core.Vc_error}
    errors like the engine points. *)

val best :
  ctx ->
  Vc_bench.Registry.entry ->
  Vc_mem.Machine.t ->
  reexpand:bool ->
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
