(** Stream compaction engines (paper §5, Fig. 8, Fig. 16).

    Stream compaction stably partitions the threads of a block into those
    taking the base-case branch and those taking the recursive branch, so
    each group can then be executed with unmasked vector instructions.  Four
    engines implement the same partition with different cost profiles:

    - {!Sequential}: the scalar loop — the baseline the paper's Fig. 16
      compares against ("no sc").
    - {!Full_table}: one [2^w]-entry shuffle-table lookup plus one shuffle
      per register (needs [Isa.has_shuffle]).
    - {!Factorized}: the paper's contribution — [w]-wide compaction from
      [s]-wide sub-tables ([s | w]) combined through the advance table;
      [w/s] lookups+shuffles per register instead of one, for a [2^(w-s)]×
      smaller table.  The paper uses 8-wide tables for 16-wide compaction.
    - {!Prefix_scatter}: the Xeon Phi path — prefix-sum table plus masked
      scatter (needs [Isa.has_masked_scatter]), also factorizable.

    All engines produce identical output (tested by property tests); they
    differ only in the instructions charged to the {!Vm}. *)

type engine =
  | Sequential
  | Full_table
  | Factorized of { sub_width : int }
  | Prefix_scatter of { sub_width : int }

exception Unsupported of { engine : string; isa : string; reason : string }
(** Raised by {!partition} when the requested engine cannot run on the
    VM's ISA (or its parameters are inconsistent).  Typed so supervised
    executors can catch it and fall back to the scalar partition instead
    of dying on an untyped [Invalid_argument]. *)

val name : engine -> string

val default_for : Isa.t -> width:int -> engine
(** The engine the paper uses on each platform: factorized 8-wide shuffle
    tables on SSE4.2 (full table when [width <= 8]), prefix-sum + masked
    scatter on AVX512/IMCI. *)

val legal : Isa.t -> engine -> bool
(** Whether the ISA has the instructions the engine needs. *)

val table_memory_bytes : engine -> width:int -> int
(** Modeled table footprint — the space/time trade-off of §5. *)

type rows = { mutable idx : int array; mutable len : int }
(** A growable row-index buffer: the valid entries are
    [idx.(0 .. len - 1)]; [idx] may be longer and hold stale entries
    beyond [len]. *)

val rows : unit -> rows
(** An empty buffer. *)

val partition_into :
  vm:Vm.t ->
  engine:engine ->
  width:int ->
  n:int ->
  pred:(int -> bool) ->
  sel:rows ->
  rest:rows ->
  unit
(** [partition_into ~vm ~engine ~width ~n ~pred ~sel ~rest] splits the
    stream [0..n-1] into [sel] (indices where [pred] holds) and [rest]
    (where it does not), both in stream order (stable).  The buffers'
    previous contents are discarded and they grow to [n] when shorter, so
    a caller that reuses one pair allocates nothing per row once they are
    wide enough (each call still allocates a few words: the table handle
    and two per-register mask arrays of [width / sub_width] entries).
    Charges the engine's instructions to [vm]; the predicate
    evaluation itself is charged by the caller (it is the vectorized
    [isBase] loop).  Also tallies [Stats.compaction_calls] (one per
    non-empty partition) and [Stats.compaction_passes] (one per sub-group
    pass of the table-driven engines; zero for {!Sequential}) so the
    telemetry layer can report per-partition pass counts.  Raises
    {!Unsupported} for an engine the VM's ISA cannot execute or a
    [sub_width] that does not divide [width]. *)

val partition :
  vm:Vm.t ->
  engine:engine ->
  width:int ->
  n:int ->
  pred:(int -> bool) ->
  int array * int array
(** {!partition_into} into fresh buffers, returned as [(sel, rest)]
    arrays: the same rows and the same charges. *)
