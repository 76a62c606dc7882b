(** Typed error taxonomy for supervised execution.

    Every runtime failure carries a {e site} (which subsystem broke), a
    {e phase} (where in the run lifecycle it happened) and a {e recovery
    hint} (what a supervisor may do about it), replacing the ad-hoc
    [failwith]/[invalid_arg] escapes that previously killed whole sweeps.
    Budget violations (deadlines, live-frame and task limits) are a
    separate kind so callers can map them to the exit-code convention:
    0 ok, 1 verification/fault failure, 2 budget/deadline exceeded. *)

type site =
  | Compaction  (** stream-compaction partition *)
  | Conversion  (** AoS↔SoA layout conversion *)
  | Block_alloc  (** ThreadBlock allocation / growth *)
  | Cache_io  (** persistent run-cache I/O *)
  | Scheduler  (** engine / interpreter scheduling *)
  | Decode  (** JSON / report decoding *)
  | Telemetry  (** telemetry sink I/O (closed or full channel) *)
  | Protocol  (** serve wire protocol: framing, parse, read timeouts *)

type phase = Setup | Expand | Execute | Recover | Persist | Load

type hint =
  | Retry  (** transient: retry the operation *)
  | Fallback_scalar  (** quarantine the block, re-run its tasks scalar *)
  | Discard_entry  (** drop the corrupt datum, keep the rest *)
  | Abort  (** no recovery: surface to the caller *)

type resource =
  | Deadline_cycles
  | Deadline_wall
  | Live_frames
  | Task_budget
  | Memory
      (** a run exceeded the machine's live-thread capacity inside a
          scheduler that treats it as a per-job failure (the plain engine
          reports OOM via {!Report.t} instead) *)
  | Queue_depth
      (** admission control: the serve daemon's bounded job queue was
          full, so the request was rejected instead of queued (the
          [overloaded] response status) *)

type kind =
  | Fault of { site : site; hint : hint }
  | Budget_exceeded of { resource : resource; limit : float; actual : float }

type t = { kind : kind; phase : phase; detail : string }

exception Error of t

val site_name : site -> string
val phase_name : phase -> string
val hint_name : hint -> string
val resource_name : resource -> string

val site_of : t -> site option
(** The fault site; [None] for budget violations. *)

val hint_of : t -> hint option
(** The recovery hint; [None] for budget violations. *)

val is_budget : t -> bool

(** {1 Exit-code taxonomy}

    The process-level convention shared by every [vcilk] subcommand —
    defined once here so the CLI, the serve daemon, tests, and CI assert
    against the same constants:

    - {!exit_ok} [= 0]: success (chaos/fuzz: every check recovered /
      no divergence);
    - {!exit_failure} [= 1]: detected failure — verification or chaos
      check failed, fuzz divergence (reproducer written), unrecovered
      fault, load error;
    - {!exit_budget} [= 2]: a budget or deadline was exceeded
      ([Budget_exceeded]).

    A {e crash} (uncaught exception) is distinct from all of these:
    cmdliner maps it to 125 (and CLI usage errors to 124), so a nonzero
    exit from chaos/fuzz always means "the tool detected something", never
    "the tool fell over". *)

val exit_ok : int
val exit_failure : int
val exit_budget : int

val exit_code : t -> int
(** {!exit_budget} for budget violations, {!exit_failure} otherwise. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val fail : phase:phase -> site -> hint -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with a formatted detail message. *)

val budget :
  ?detail:string ->
  phase:phase ->
  resource ->
  limit:float ->
  actual:float ->
  unit ->
  'a
(** Raise a [Budget_exceeded] {!Error}. *)

val of_exn : phase:phase -> exn -> t
(** Classify an arbitrary exception: {!Error} payloads pass through,
    anything else becomes an unrecoverable [Scheduler] fault carrying the
    original message. *)
