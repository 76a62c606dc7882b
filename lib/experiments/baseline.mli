(** The modeled ledger: per-benchmark summary metrics at one block size.

    {!collect} summarizes the hybrid re-expansion point of every registry
    benchmark on every machine; {!pp} renders the summary at full
    precision.  The engine is a deterministic simulator, so the text is
    exact: [test/golden/baseline.txt] pins it byte for byte (quick scale,
    {!default_block}), and [vcilk bench] prints it through the same
    printer. *)

type metrics = {
  cycles : float;  (** modeled cycles (hybrid re-expansion run) *)
  speedup : float;  (** over the same machine's sequential run *)
  domains_speedup : float;
      (** the {!Vc_core.Domain_sched} hybrid multicore × SIMD point at
          2 domains, over the same sequential run *)
  lane_occupancy : float;
  compaction_passes : int;
  space_peak : int;  (** peak live frames *)
  occupancy_hist : int array;  (** 10 deciles of per-op lane occupancy *)
}

val default_block : int
(** Block size used by {!collect} unless overridden (256). *)

val collect : ?block:int -> Sweep.ctx -> (string * metrics) list
(** Run (or reuse from cache) the hybrid re-expansion point at [block],
    its 2-domain counterpart and the sequential baseline for every
    registry benchmark on every machine.  Keyed ["bench/machine"],
    sorted by key. *)

val pp : Format.formatter -> (string * metrics) list -> unit
(** A header line, then one row per key: floats with [%.17g] (so they
    round-trip), ints exact, all 10 histogram bins.  No label, version
    or wall clock, so equal metrics always render equal text. *)
