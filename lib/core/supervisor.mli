(** Supervised execution: budgets, fault containment, recovery accounting.

    The supervisor wraps {!Engine.run}, {!Domain_sched.run} and the
    wall-clock {!Backend}s so that a run either completes — possibly
    degraded, with quarantined blocks re-executed on the scalar path — or
    terminates promptly with a typed {!Vc_error.t} instead of an arbitrary
    exception.  Budgets (modeled
    cycles, wall-clock seconds, live frames) are enforced cooperatively by
    the executors at level boundaries; task limits surface as
    [Budget_exceeded] errors too, so the caller can apply the exit-code
    convention uniformly: 0 ok, 1 fault/verification failure, 2 budget
    exceeded ({!Vc_error.exit_code}).

    Recovery accounting rides the telemetry bus (a counting sink observes
    [Fault], [Fallback] and [Deadline] events) rather than widening
    {!Report.t}, which would invalidate persisted run caches. *)

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

type outcome = {
  report : Report.t;
  fallbacks : int;  (** quarantined blocks re-run on the scalar path *)
  faults_seen : int;  (** faults surfaced (injected or organic) *)
  deadline_events : int;  (** budget-violation telemetry events *)
}

val run :
  ?compact:Vc_simd.Compact.engine ->
  ?max_tasks:int ->
  ?cutoff:int ->
  ?warm:bool ->
  ?trace:Trace.t ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.plan ->
  ?recover:bool ->
  ?budgets:budgets ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  strategy:Policy.strategy ->
  unit ->
  (outcome, Vc_error.t) result
(** Supervised {!Engine.run}.  With [recover:true] (default) injected and
    organic vectorized-path faults degrade to scalar re-execution — the
    outcome's [report] then has reducer values and task counts exactly
    equal to a fault-free run, and [fallbacks] counts the quarantines.
    [Error e] carries the typed failure: budget violations when a budget
    in [budgets] was exceeded, the fault itself when [recover:false]. *)

val run_domains :
  ?compact:Vc_simd.Compact.engine ->
  ?max_tasks:int ->
  ?cutoff:int ->
  ?chunks:int ->
  ?steal_cost:float ->
  ?seed:int ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.plan ->
  ?recover:bool ->
  ?budgets:budgets ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  strategy:Policy.strategy ->
  domains:int ->
  unit ->
  (Domain_sched.result, Vc_error.t) result
(** Supervised {!Domain_sched.run}: the hybrid multicore × SIMD scheduler
    under the same typed-error contract as {!run}.  Budgets apply per
    engine context (expansion phase and each chunk independently); the
    returned {!Domain_sched.result} carries its own cross-context
    fault/fallback totals, so no counting sink is attached here. *)

type backend_outcome = {
  result : Backend.result;
  b_fallbacks : int;  (** quarantined levels re-run on the scalar path *)
  b_faults_seen : int;
  b_deadline_events : int;
}

val run_backend :
  ?strategy:Policy.strategy ->
  ?max_tasks:int ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.plan ->
  ?recover:bool ->
  ?budgets:budgets ->
  ?domains:int ->
  Backend.t ->
  Backend.source ->
  roots:int array list ->
  (backend_outcome, Vc_error.t) result
(** Supervised {!Backend.run}: wall-clock backends ({!Backend.interp},
    {!Backend.compiled}), on any source and with or without [domains],
    under the same typed-error and recovery contract as {!run}.  Backends have no cost model, so [budgets.deadline] is
    ignored; with [recover:true] (default) injected level faults degrade
    to scalar re-execution with bit-equal reducers and task counts. *)
