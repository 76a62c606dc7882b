(** Cycle-attribution profiler over telemetry spans.

    Attaches to a {!Telemetry} hub as a {!Telemetry.callback_sink} and
    turns span-open/close events into an attribution tree: modeled-cycle
    clock deltas between span boundaries are charged to the innermost
    open frame path (benchmark → execution phase → spawn site), and
    compaction / conversion / fault events increment counters on the
    frame they occurred under.

    Because every clock reading is a sum of half-integer ISA costs and
    miss penalties, the charged segments are exact doubles and telescope:
    for a completed engine run {!total_cycles} equals [Report.cycles]
    {e exactly} (bit-for-bit), which the test suite asserts.  Time
    observed while no span is open is charged to an ["(untracked)"]
    frame.

    The profiler resets itself when the hub is cleared, so the engine's
    warm pass does not contaminate measured attributions. *)

type t

val create : unit -> t

val sink : t -> Telemetry.sink
(** A callback sink feeding this profiler; hub [clear] resets it. *)

val attach : t -> Telemetry.t -> unit
(** [attach t tel] = [Telemetry.attach tel (sink t)]. *)

val reset : t -> unit

val observe : t -> Telemetry.stamped -> unit
(** Feed one event by hand (normally done via {!sink}). *)

(** {1 Views} *)

type frame = {
  stack : string list;  (** frame path, outermost first *)
  cycles : float;  (** modeled cycles charged directly to this path *)
  opens : int;  (** times this exact path was entered *)
  compaction_calls : int;
  compaction_passes : int;
  converts : int;
  faults : int;
}

val frames : t -> frame list
(** All attribution frames, hottest first (ties broken by path). *)

val total_cycles : t -> float
(** Sum of all charged cycles; exactly the clock span between the first
    and last span boundary observed. *)

val unbalanced : t -> int
(** Span opens/closes that did not pair up (0 for engine runs). *)

val folded : t -> string
(** Folded-stack lines ["bench;phase;frame cycles\n"], sorted by path —
    the input format of flamegraph.pl / speedscope / inferno.  Cycle
    counts are printed losslessly so summing the column reconciles with
    {!total_cycles}. *)

val pp_hotspots : ?top:int -> Format.formatter -> t -> unit
(** Top-N hotspot table (default 10) with a reconciling total line. *)

val json_string : t -> string
(** Compact JSON: [{"total_cycles":..,"events":..,"frames":[...]}]. *)
