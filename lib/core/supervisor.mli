(** Supervised execution: budgets, fault containment, recovery accounting.

    Every executor — the cost-model {!Engine}, the {!Domain_sched} hybrid
    and the wall-clock {!Backend}s — takes its budgets as one {!budgets}
    record and reports every exceeded budget (task limits included) as a
    typed [Budget_exceeded] {!Vc_error.Error}.  {!run} wraps any of them
    so that a run either completes — with faulted blocks recovered — or
    returns a typed
    {!Vc_error.t} instead of raising, and the caller can apply the
    exit-code convention uniformly: 0 ok, 1 fault/verification failure,
    2 budget exceeded ({!Vc_error.exit_code}).

    Recovery accounting rides the telemetry bus (a counting sink observes
    [Fault] and [Fallback] events) rather than widening {!Report.t},
    which would invalidate persisted run caches.  The one chunked driver,
    {!Domain_sched.run_chunks}, replays its chunks' recovery events onto
    the caller's hub after the join ({!Telemetry.chunk_hub}), so one sink
    sees them all, and re-raises the lowest-index chunk's exception as
    it was raised, which {!run} types like any other. *)

type budgets = {
  deadline : float option;  (** modeled-cycle ceiling (engine only) *)
  wall_deadline : float option;  (** wall-clock ceiling, seconds *)
  max_live_frames : int option;  (** live-frame ceiling *)
}

val no_budgets : budgets

val budgets :
  ?deadline:float -> ?wall_deadline:float -> ?max_live_frames:int -> unit -> budgets

val clamp_budgets : ceiling:budgets -> budgets -> budgets
(** Tightest-wins merge of per-request budgets against an operator
    ceiling: each field is the minimum of the two when both are set, the
    set one otherwise.  The serve daemon applies its [--wall-deadline]
    etc. ceilings this way, so a request can tighten but never relax
    them. *)

type 'a outcome = {
  value : 'a;
  fallbacks : int;
      (** faulted blocks recovered: re-run on the scalar path (engine) or
          re-stepped with the fault site disarmed (backends) *)
  faults_seen : int;  (** faults surfaced (injected or organic) *)
}

val run :
  ?telemetry:Telemetry.t -> (Telemetry.t -> 'a) -> ('a outcome, Vc_error.t) result
(** [run f] attaches a counting sink to [telemetry] (a fresh hub when
    absent), calls [f] with that hub — [f] passes it to the executor —
    and counts the [Fault] and [Fallback] events the run emits.  Any
    exception becomes [Error]: a {!Vc_error.Error} as itself (budget
    violations, faults the executor does not recover), anything else
    through {!Vc_error.of_exn}. *)
