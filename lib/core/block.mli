(** ThreadBlocks: the merged stack frames of many threads, SoA layout.

    One block holds the frames of every thread at one level of the
    computation tree (§4.1).  All instances of each frame field are stored
    contiguously (structure-of-arrays, §5), so the executors replace
    per-thread scalar loads/stores with packed vector accesses and allocate
    or free all frames with a constant number of instructions.

    A block's modeled allocation ([capacity] and {!field_addr}: what the
    cache model sees) is separate from the host columns that hold its
    rows.  A block created with a [store] takes power-of-two host columns
    from it at its first push after a {!release} (sized by the fill
    before that release) and doubles them when a fill outgrows them, so
    it holds host memory only for the rows it has actually written. *)

module Store : sig
  type t
  (** Free host columns for the blocks of one execution context, which
      all have the same number of fields.  Not thread-safe: give each
      context (each domain) its own. *)

  val create : unit -> t

  val allocated : t -> int
  (** Host words (int cells) ever allocated by this store. *)

  val poison : t -> int -> unit
  (** Test hook: fill every free column with the value now, and every
      column the store allocates or takes back from here on. *)
end

type t

val create :
  ?label:string ->
  ?store:Store.t ->
  Addr.t ->
  schema:Schema.t ->
  isa:Vc_simd.Isa.t ->
  capacity:int ->
  t
(** Allocate a block (and its modeled address range) for up to [capacity]
    frames.  Without [store] the block owns host columns of [capacity]
    rows from the start. *)

val schema : t -> Schema.t
val size : t -> int
val capacity : t -> int
(** Modeled frames the block's address range holds. *)

val clear : t -> unit
(** Reset to empty; keeps storage and addresses (the paper's block-reuse
    optimization). *)

val elem_bytes : t -> int

val release : t -> unit
(** Empty the block and hand its host columns back to its store (to the
    GC without one).  Its modeled addresses stay; the next push takes
    columns again. *)

val get : t -> field:int -> row:int -> int
val set : t -> field:int -> row:int -> int -> unit

val frame : t -> int -> int array
(** [frame t row] copies row [row] out as one frame (one value per
    field). *)

val push : t -> int array -> unit
(** Append a frame (length = #fields).  Raises [Invalid_argument] when
    full — callers grow via {!ensure_room} first. *)

val reserve : t -> int
(** Append an uninitialized frame, returning its row.  The row may hold
    stale data from any block of the same store: the caller writes every
    field before the row is read. *)

val truncate : t -> int -> unit
(** Drop rows beyond the given size. *)

val field_addr : t -> field:int -> row:int -> int
(** Modeled address of one element (SoA: column-major). *)

val ensure_room : t -> Addr.t -> extra:int -> t
(** A block with room for [size + extra] frames: the same block when it
    already fits, otherwise a fresh, larger one (geometric growth) with a
    new address range that takes over [t]'s rows and host columns ([t] is
    left empty).  The old range is abandoned — reallocations are visible
    to the cache model, as on real hardware. *)

val copy_row : src:t -> src_row:int -> dst:t -> unit
(** Append row [src_row] of [src] to [dst] (same schema). *)
