(** Additional experiments beyond the paper's tables and figures, ablating
    design choices DESIGN.md calls out. *)

val strawman : Sweep.ctx -> Format.formatter -> unit
(** §2's strawman (lane-per-thread divergent depth-first) vs. the blocked
    transformation — quantifying why the naive mapping fails. *)

val compaction_cost : Sweep.ctx -> Format.formatter -> unit
(** Instruction cost and table footprint of the four stream-compaction
    engines on one block-partition workload. *)

val dsl_vs_native : Sweep.ctx -> Format.formatter -> unit
(** The fully-automatic path (DSL → Fig. 7 transform → compiled spec) vs.
    the hand-written native spec for fib: same results, comparable model
    costs. *)

val aos_soa_overhead : Sweep.ctx -> Format.formatter -> unit
(** Cost of the dynamic AoS↔SoA conversion (§5) relative to one level of
    kernel execution, for a uts-sized block. *)

val multicore : Sweep.ctx -> Format.formatter -> unit
(** The §8 future-work hybrid: work-stealing multicore on top of the
    SIMD engine ({!Vc_core.Domain_sched}), swept over worker counts. *)

val width_scaling : Sweep.ctx -> Format.formatter -> unit
(** The §8 hardware-scaling claim: on a future ISA with char-level
    512-bit vectors (AVX512BW), the same transformed code automatically
    exploits 64-wide lanes. *)

val task_cutoff : Sweep.ctx -> Format.formatter -> unit
(** Why the paper runs without a task cut-off (§6.1): sequentializing
    below a threshold starves the SIMD lanes. *)

val warm_cache : Sweep.ctx -> Format.formatter -> unit
(** Table 2's minmax footnote: speedup with the caches warmed for the
    kernel computation. *)
