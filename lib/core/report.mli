(** The result of one measured run: reducer values plus every model
    quantity the evaluation section reports. *)

type t = {
  benchmark : string;
  machine : string;
  strategy : string;
  oom : bool;  (** breadth-first expansion exceeded the space limit *)
  reducers : (string * int) list;
  tasks : int;
  base_tasks : int;
  max_depth : int;
  issue_cycles : float;
  penalty_cycles : float;
  cycles : float;
  cpi : float;
  utilization : float;  (** Fig. 10's metric *)
  lane_occupancy : float;
  scalar_ops : int;
  vector_ops : int;
  kernel_ops : int;  (** Table 3 vectorizable side (sequential runs) *)
  cache : (string * int * int) list;  (** label, accesses, misses *)
  miss_rates : (string * float) list;
  space_peak : int;  (** live-thread high-water *)
  levels : (int * int) array;  (** Fig. 9: (tasks, base) per depth *)
  reexpansions : (int * int * float) array;  (** Fig. 15 *)
  reexp_count : int;  (** total re-expansion events *)
  compaction_calls : int;  (** non-empty compaction partitions *)
  compaction_passes : int;  (** sub-group passes across all partitions *)
  occupancy_hist : int array;  (** 10-bucket per-level lane-occupancy histogram *)
  wall_seconds : float;  (** host wall-clock, for transparency *)
}

val oom_placeholder : benchmark:string -> machine:string -> strategy:string -> t

val merge :
  reducers:(string * Vc_lang.Reducer.op) list ->
  strategy:string ->
  cycles:float ->
  space_peak:int ->
  wall_seconds:float ->
  t list ->
  t
(** Merge the parts of one logical run executed across several engine
    contexts (expansion phase first, then chunks in chunk-index order —
    the part order is the canonical merge order, so the result is
    independent of execution interleaving).  Counters sum, reducer values
    combine under their ops, rates are weighted means or recomputed;
    [cycles] and [space_peak] come from the caller's schedule model and
    are — with the derived [cpi] — the only fields a different worker
    count may change.  If any part is an OOM report the merge is the OOM
    placeholder.  Raises [Invalid_argument] on an empty list. *)

val equal : t -> t -> bool
(** Structural equality of two reports, excluding the host wall-clock
    field, which is the only nondeterministic field of a report — model quantities are bit-identical across reruns,
    parallel schedules, and run-cache round-trips. *)

val speedup : baseline:t -> t -> float
(** Modeled speedup of [t] over [baseline] (0 when [t] is an OOM run). *)

val reducer : t -> string -> int
(** Raises [Not_found]. *)

val pp_summary : Format.formatter -> t -> unit
