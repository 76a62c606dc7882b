(** The accounting vector machine.

    OCaml cannot issue real SIMD instructions, so executors route every
    modeled instruction through this machine: it tallies {!Stats}, converts
    them to issue cycles with the {!Isa} cost table, and reports every
    memory access to an optional hook (wired to the cache simulator by the
    engine).  The semantic computation itself runs as ordinary OCaml; the
    VM is the measurement plane (see DESIGN.md §2). *)

type hook = addr:int -> bytes:int -> write:bool -> unit
(** Receives every modeled memory access: its start address, its size in
    bytes and whether it is a store. *)

type t

val create : ?on_access:hook -> Isa.t -> t

val isa : t -> Isa.t
val stats : t -> Stats.t

val snapshot : t -> Stats.t
(** An independent copy of the current counters — diff two snapshots with
    {!Stats.diff} to attribute instructions to a region (the telemetry
    layer does this per block level). *)

val set_on_access : t -> hook option -> unit

(** {1 Compute instructions} *)

val scalar_ops : t -> int -> unit
(** Issue [n] scalar ALU instructions. *)

val vector_op : t -> width:int -> active:int -> unit
(** Issue one vector instruction of [width] lanes, [active] of them doing
    useful work. *)

val batch : t -> ?classify:bool -> width:int -> n:int -> insns_per_task:int -> unit -> unit
(** Model a dense vectorized loop over [n] independent tasks, each needing
    [insns_per_task] instructions: [ceil(n/width) * insns_per_task] vector
    instructions.  With [classify:true] (default false) the tasks are also
    tallied for the Fig. 10 utilization metric: those in full-width groups
    count toward [Stats.full_tasks], the remainder toward
    [Stats.epilog_tasks].  Executors classify each task exactly once per
    tree level (at the batch where its case body runs). *)

(** {1 Memory instructions}

    Loads and stores are also issued as instructions (they increment the
    scalar/vector op counters) and are reported to the access hook with
    their modeled address and size. *)

val scalar_load : t -> addr:int -> bytes:int -> unit
val scalar_store : t -> addr:int -> bytes:int -> unit

val vector_load : t -> addr:int -> lanes:int -> lane_bytes:int -> unit
(** Packed (contiguous) vector load of [lanes * lane_bytes] bytes. *)

val vector_store : t -> addr:int -> lanes:int -> lane_bytes:int -> unit

val column : t -> write:bool -> addr:int -> n:int -> width:int -> lane_bytes:int -> unit
(** Stream one SoA column of [n] elements starting at [addr] through
    packed vector loads (or stores, with [write:true]) of [width] lanes:
    [ceil(n/width)] {!vector_load}s (or {!vector_store}s) issued chunk by
    chunk, the last one partial.  No-op when [n <= 0]. *)

val gather : t -> addrs:int array -> lane_bytes:int -> unit
(** Strided/indexed vector load; each lane's address is reported
    separately and the extra [Isa.gather_cost] is charged. *)

val scatter : t -> addrs:int array -> lane_bytes:int -> unit

(** {1 Compaction primitives} *)

val shuffle : t -> width:int -> unit
(** One in-register shuffle.  Raises [Invalid_argument] if the ISA has no
    shuffle instruction — callers must pick a legal engine. *)

val masked_scatter : t -> width:int -> active:int -> lane_bytes:int -> addr:int -> unit
(** Masked scatter of [active] of [width] lanes to a contiguous run starting
    at [addr] (the compaction output position).  Requires
    [Isa.has_masked_scatter]. *)

val table_lookup : t -> addr:int -> bytes:int -> unit
(** One shuffle/advance/prefix table read: a scalar load from table memory. *)

(** {1 Cost} *)

val issue_cycles : t -> float
(** Cycles attributable to instruction issue under the ISA cost table
    (memory-hierarchy penalties are added by [Vc_mem.Cost]). *)
