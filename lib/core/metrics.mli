(** Per-run measurement collection.

    Gathers everything the evaluation section plots that is not already in
    [Vc_simd.Stats] or the cache counters: the per-level task distribution
    (Fig. 9), re-expansion events and their block-growth factors (Fig. 15),
    live-thread space high-water, and the kernel/overhead instruction split
    behind Table 3. *)

type t

val create : unit -> t

val reset : t -> unit
(** Zero all counters (used between a warm-up pass and the measured
    pass). *)

(** {1 Recording} *)

val tasks_at_level : t -> depth:int -> n:int -> unit
val base_at_level : t -> depth:int -> n:int -> unit

val reexpansion : t -> depth:int -> before:int -> unit
(** A block of size [before] at [depth] was handed back to breadth-first
    expansion. *)

val reexpansion_growth : t -> depth:int -> factor:float -> unit
(** Block-size growth factor observed for the first expanded level after a
    re-expansion at [depth]. *)

val live_threads : t -> int -> unit
(** Report the current live-thread count; the high-water mark is kept. *)

val kernel_ops : t -> int -> unit
val overhead_ops : t -> int -> unit

val occupancy_sample : t -> n:int -> width:int -> unit
(** Record the lane occupancy of one vectorized level of [n] tasks run at
    vector [width] — [n / (ceil(n/width) * width)] — into a 10-bucket
    histogram.  Ignored when [n] or [width] is non-positive. *)

(** {1 Reading} *)

val total_tasks : t -> int
val total_base : t -> int
val max_depth : t -> int

val levels : t -> (int * int) array
(** Index = depth; (all tasks, base tasks). *)

val reexpansions : t -> (int * int * float) array
(** (depth, #re-expansions, mean growth factor) for depths with events. *)

val space_peak : t -> int
val kernel_op_count : t -> int
val overhead_op_count : t -> int

val reexpansion_total : t -> int
(** Total re-expansion events across all depths. *)

val occupancy_hist : t -> int array
(** The 10-bucket occupancy histogram: bucket [i] counts levels whose
    occupancy fell in [[i/10, (i+1)/10)] (occupancy 1.0 lands in the last
    bucket). *)

(** Fixed-layout, log-scaled latency histogram with per-domain shards.

    The one latency store of the serve daemon and loadgen: [buckets]
    geometrically spaced upper bounds from [lo] to [hi] plus one overflow
    bucket, exact counts, and a shard per writer domain merged at read
    time so worker adds never share a lock.  Two histograms with the same
    layout {!Histogram.merge} by bucket-wise addition, which is what lets
    loadgen connection threads and multi-process roll-ups combine without
    losing tail resolution. *)
module Histogram : sig
  type t

  val create :
    ?shards:int -> ?buckets:int -> ?lo:float -> ?hi:float -> unit -> t
  (** [create ()] uses 8 shards, 64 buckets, [lo] = 0.05 ms and [hi] =
      60000 ms (one minute).  Bucket [i]'s
      upper bound is [lo * (hi/lo)^(i/(buckets-1))]; values above [hi]
      land in the overflow bucket.  Raises [Invalid_argument] unless
      [shards >= 1], [buckets >= 2] and [0 < lo < hi]. *)

  val add : t -> float -> unit
  (** Record one sample into the calling domain's shard (domain-safe). *)

  val count : t -> int
  (** Exact number of samples ever added. *)

  val sum : t -> float
  (** Exact sum of all samples (for mean / Prometheus [_sum]). *)

  val max_value : t -> float
  (** Largest sample ever added; [0.0] when empty. *)

  val bucket_index : t -> float -> int
  (** Index of the bucket a value lands in ([buckets] = overflow). *)

  val bounds : t -> float array
  (** The finite bucket upper bounds, ascending (length [buckets]). *)

  val counts : t -> int array
  (** Merged per-bucket counts (length [buckets + 1]; last = overflow). *)

  val cumulative : t -> (float * int) array
  (** [(le, cumulative_count)] pairs, ascending — the Prometheus
      histogram series shape; the final entry is [(infinity, count t)]. *)

  val quantile : t -> float -> float
  (** Nearest-rank quantile over the cumulative buckets: the upper bound
      of the first bucket reaching rank [ceil (q * count)], so at most
      one bucket width above the exact value.  Hits in the overflow
      bucket report the exact maximum.  [q] clamped to [0,1]; [0.0] when
      empty. *)

  val merge : t -> t -> t
  (** Bucket-wise sum into a fresh histogram.  Raises [Invalid_argument]
      on a layout mismatch ([lo], [hi] or [buckets] differ). *)
end
