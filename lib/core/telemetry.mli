(** Structured execution telemetry.

    Executors emit typed events — one per expanded tree level, plus
    scheduler transitions (BFS→blocked switch, re-expansion), compaction
    invocations, SoA↔AoS conversions and per-level cache deltas — into a
    hub that fans them out to pluggable sinks: an in-memory ring buffer,
    a JSONL stream, a Chrome trace-event JSON file (loadable in
    chrome://tracing / Perfetto), or a callback (counters, the unbounded
    level timeline of {!level_sink}).

    A hub with no sinks attached is disabled: {!emit} is a single mutable
    field test, so instrumented code paths can call it unconditionally.

    Timestamps come from a pluggable clock.  The engine wires it to the
    modeled-cycle counter (VM issue cycles + memory-hierarchy penalty
    cycles), so event times are deterministic simulated time, not wall
    clock. *)

type phase =
  | Bfs  (** breadth-first level (including re-expansion) *)
  | Blocked  (** blocked depth-first level *)
  | Cutoff  (** sequentialized subtree (task cut-off) *)

val phase_name : phase -> string

type event =
  | Level of { phase : phase; depth : int; size : int; base : int }
      (** One expanded tree level: [size] tasks entered, [base] of them
          were base cases. *)
  | Switch of { depth : int; size : int }
      (** Scheduler switched from breadth-first expansion to blocked
          depth-first execution at [depth] with [size] live tasks. *)
  | Reexpand of { depth : int; size : int; shrink : float }
      (** A shrunken block re-entered breadth-first expansion; [shrink]
          is [size / reexpansion-threshold]. *)
  | Compaction of { engine : string; width : int; n : int; passes : int }
      (** One stream-compaction partition of [n] elements. *)
  | Convert of { to_soa : bool; n : int; fields : int }
      (** An AoS→SoA ([to_soa = true]) or SoA→AoS layout conversion. *)
  | Cache of { level : string; depth : int; accesses : int; misses : int }
      (** Memory-simulator accesses/misses at one cache level,
          accumulated over one tree level. *)
  | Fault of { site : string; detail : string }
      (** A fault (injected or organic) surfaced at a runtime site. *)
  | Fallback of { depth : int; size : int }
      (** A faulted block of [size] frames at [depth] was recovered: the
          modeled engine re-executes it on the scalar path, the wall-clock
          backends re-run the intact level with its fault site disarmed. *)
  | Deadline of { resource : string; limit : float; actual : float }
      (** A budget or deadline was exceeded. *)
  | Steal of { thief : int; victim : int; chunk : int }
      (** Domain [thief] stole [chunk] from [victim]'s deque (emitted
          from the deterministic {!Ws_sim} schedule by the hybrid
          domain scheduler). *)
  | Span_open of { frame : string }
      (** An attribution span opened: clock time from here until the next
          span boundary belongs to [frame] (nested under any open spans).
          Rendered as a Chrome "B" event; consumed by [Profile]. *)
  | Span_close of { frame : string }
      (** The matching close of {!Span_open}.  Rendered as a Chrome "E"
          event. *)
  | Mark of string  (** Free-form annotation. *)

type stamped = { seq : int; ts : float; dur : float; ev : event }
(** An event with its emission order, timestamp and (for [Level]) modeled
    duration, both in clock units. *)

(** {1 Sinks} *)

type sink

val null : sink
(** Discards everything.  Attaching it is a no-op, so a hub stays
    disabled (near-zero overhead on instrumented paths). *)

val ring : capacity:int -> sink
(** Keeps the most recent [capacity] events in memory.  Raises
    [Invalid_argument] if [capacity < 1]. *)

val ring_events : sink -> stamped list
(** Buffered events of a {!ring} sink, oldest first ([[]] for other
    sinks). *)

val jsonl_sink : ?trace:string -> out_channel -> sink
(** Streams one JSON object per line as events arrive.  [trace] tags
    every line with a [{"trace":id}] field — the serve daemon attaches
    one sink per request so a shared stream demultiplexes by request. *)

val chrome_sink : out_channel -> sink
(** Buffers events and writes a Chrome trace-event JSON array on
    {!flush}: [Level] events as complete ("X") slices, spans as
    nestable begin/end ("B"/"E") pairs, cache deltas as counter ("C")
    samples, everything else as instants ("i"). *)

val callback_sink : ?on_clear:(unit -> unit) -> (stamped -> unit) -> sink
(** Invokes the callback on every event; [on_clear] (a no-op by default)
    runs on hub {!clear}.  Used by the
    supervisor to count faults and fallbacks, and by [Profile] to build
    cycle attributions, without threading extra state through the
    engine. *)

type counts = { faults : int; fallbacks : int; deadlines : int }

val counting_sink : unit -> sink * (unit -> counts)
(** A sink counting [Fault], [Fallback] and [Deadline] events, and a
    reader of the totals so far (not reset by {!clear}).  {!Supervisor.run}
    observes recovery through it. *)

val level_sink : unit -> sink * (unit -> stamped list)
(** A sink keeping every [Level] event (unbounded; emptied by {!clear}),
    and a reader returning them oldest first. *)

(** {1 Hub} *)

type t

val create : unit -> t
(** A disabled hub with no sinks. *)

val with_sinks : sink list -> t
(** A hub with the given sinks attached ({!null} entries are dropped). *)

val attach : t -> sink -> unit
(** Add a sink; enables the hub unless the sink is {!null}. *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Replace the timestamp source.  Default: the event sequence number. *)

val now : t -> float
(** Current clock reading (sequence number if no clock was set). *)

val emit : ?ts:float -> ?dur:float -> t -> event -> unit
(** Stamp and fan an event out to all sinks.  No-op when disabled.
    [ts] overrides the clock (used for events spanning an interval:
    pass the interval start as [ts] and its length as [dur]). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t frame f] runs [f] inside a [frame] attribution span: a
    [Span_open] before it and a [Span_close] after it, also when [f]
    raises.  On a disabled hub it is just [f ()]. *)

val fault : t -> Vc_error.t -> unit
(** Emit the [Fault] event that records a surfaced {!Vc_error.t}: its site
    name and detail. *)

val chunk_hub : t -> t * (raised:bool -> unit)
(** [chunk_hub caller] is a private hub for one chunk of a chunked run
    (chunk workers run on other domains, so they must not share
    [caller]) and a replay function that re-emits the chunk's [Fault]
    and [Fallback] events onto [caller], in order, together with its
    [Deadline] events when [raised] (the chunk's exception is the one the
    run re-raises).  {!Domain_sched.run_chunks} calls replay after the
    join, in chunk-index order.  When [caller] is disabled the chunk hub
    is too and replay does nothing. *)

val clear : t -> unit
(** Reset the sequence counter and all sinks (ring emptied, buffered
    chrome events dropped, adapted trace cleared). *)

val flush : t -> unit
(** Flush stream sinks; finalizes a {!chrome_sink}'s JSON array. *)

(** {2 Sink failure}

    A stream sink whose write or flush raises [Sys_error] (channel
    closed, disk full) is {e dropped}: the sink is marked dead and
    skipped for the rest of the run, remaining sinks keep receiving
    events, and the failure surfaces once as a typed {!Vc_error.Error}
    with site [Telemetry] (recovery hint [Discard_entry]) instead of a
    bare [Sys_error] escaping mid-run. *)

(** {1 Rendering & derived views} *)

val jsonl_of_event : ?trace:string -> stamped -> string
(** One-line JSON rendering (as written by {!jsonl_sink}); [trace] adds
    the leading [{"trace":id}] field. *)

val chrome_of_event : stamped -> string
(** One Chrome trace-event object (as buffered by {!chrome_sink}). *)

val occupancy : width:int -> size:int -> float
(** Lane occupancy of a level of [size] tasks run at vector [width]:
    [size / (ceil(size/width) * width)]; 0 when either is non-positive. *)

val levels : stamped list -> stamped list
(** Just the [Level] events, in order. *)

val occupancy_points : width:int -> phase -> stamped list -> (float * float) list
(** The [phase] levels of a [Level] event list as (start time / 1000,
    lane occupancy at [width]) points, in order: the lane-occupancy
    timeline [vcilk trace] plots. *)

val pp_levels : ?limit:int -> Format.formatter -> stamped list -> unit
(** Timeline of a [Level] event list with one row per level (first
    [limit], default 40, plus a per-phase summary): level index, phase,
    depth, threads, base tasks and a log2-scaled size bar. *)
