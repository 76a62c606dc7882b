(** Multi-level memory hierarchy with the paper's two platform presets.

    An access walks the levels nearest-first; a hit at level [i] stops the
    walk.  A miss at the last level goes to memory.  Each level has a miss
    penalty in cycles, consumed by {!Cost}. *)

type level = {
  label : string;  (** e.g. "L1d", "LLC" *)
  cache : Cache.t;
  miss_penalty : float;  (** extra cycles when this level misses *)
}

type t

val create : level list -> t
(** Nearest level first.  Raises [Invalid_argument] on an empty list or
    when a level's line size differs from the nearest level's ({!access}
    walks every level one nearest-level line at a time). *)

val levels : t -> level list

val access : t -> addr:int -> bytes:int -> unit
(** Route one access (of any byte span, at a non-negative [addr]) through
    the hierarchy.  Every line touched is looked up in L1; only L1-missing
    lines proceed outward.  Allocates nothing. *)

val penalty_cycles : t -> float
(** Total accumulated miss-penalty cycles. *)

val miss_rate : t -> string -> float
(** Miss rate of the level with the given label.  Raises [Not_found] for an
    unknown label. *)

val level_stats : t -> (string * int * int) list
(** [(label, accesses, misses)] per level, nearest first. *)

val delta :
  since:(string * int * int) list ->
  (string * int * int) list ->
  (string * int * int) list
(** [delta ~since now] subtracts two {!level_stats} snapshots of the same
    hierarchy, giving the per-level accesses/misses accumulated in between
    (the telemetry layer attributes these to one block level).  Raises
    [Invalid_argument] if the snapshots' labels disagree. *)

val reset_counters : t -> unit
val clear : t -> unit

(** {1 Presets (paper §6.1)} *)

val xeon_e5 : unit -> t
(** 32 KB 8-way L1d + 20 MB 20-way LLC, 64-byte lines. *)

val xeon_phi : unit -> t
(** 32 KB 8-way L1d + 512 KB 8-way L2, 64-byte lines; larger relative miss
    penalties (in-order core, no L3). *)
