(** A set-associative LRU cache.

    One level of the simulated memory hierarchy.  Fed with the executors'
    actual address streams, it reproduces the paper's cache-miss figures
    (Figs. 11 and 13): the miss-rate cliffs appear exactly when a thread
    block's working set outgrows a level's capacity.

    Each set keeps its line tags in recency order, most recent first,
    with invalid ways last, and no timestamps.  LRU is a stack algorithm,
    so this holds exactly the lines a timestamped LRU would.  A tag is
    the full line number stored in 32 bits: four bytes per modeled line
    (the e5 LLC's 327,680 lines take 1.25 MiB).  Line numbers must lie
    in [\[0, 2^31)]: modeled addresses below 128 GiB at 64-byte lines. *)

type t

type config = {
  size_bytes : int;  (** total capacity *)
  ways : int;  (** associativity *)
  line_bytes : int;  (** cache-line size (64 on both paper platforms) *)
}

val config : t -> config

val create : config -> t
(** Raises [Invalid_argument] unless sizes are positive, the line and way
    counts divide evenly, and the set count is a power of two. *)

val access : t -> addr:int -> bool
(** Access the line containing [addr]; returns [true] on hit.  Raises
    [Invalid_argument] when that line's number is outside [\[0, 2^31)]
    (a negative [addr], or one at or above 2^31 lines), rather than let
    it alias another line.  A hit on the set's most recent line costs one compare; a hit
    further back moves the line to the front; a miss enters at the front
    and drops the set's last way (an invalid way while one is left, else
    the least recently used line).  Updates the counters.  Call once per
    line touched ({!Hierarchy.access} splits a byte span into lines).
    Allocates nothing. *)

val accesses : t -> int
val misses : t -> int

val miss_rate : t -> float
(** [misses / accesses]; 0 when never accessed. *)

val reset_counters : t -> unit
(** Zero the counters, keeping cache contents (used to measure a region of
    interest after warm-up). *)

val clear : t -> unit
(** Invalidate all lines and zero the counters. *)

val lines : t -> int
(** Total number of lines (capacity / line size). *)

val resident_lines : t -> int
(** Number of currently valid lines — for inspecting fill state in tests. *)
