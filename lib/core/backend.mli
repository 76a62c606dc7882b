(** Execution backends over the blocked IR.

    A backend executes a program source — a DSL program's blocked IR, or a
    native {!Spec.t} — with the Fig. 6 schedule (bfs levels, switch to
    per-site blocked execution at [max_block], re-expansion of shrunken
    blocks) at raw OCaml speed, with no cost model.  Two instances:

    - {!interp} ("blocked"): the {!Blocked_interp} closure stepper for IR
      sources (per-thread closure dispatch over SoA levels), spec
      callbacks over ThreadBlocks for native sources;
    - {!compiled}: per-spawn-site specialized {!Codegen.Soa} step kernels
      over the same SoA levels for IR sources (native sources use the same
      callback path — a native spec is already compiled OCaml).

    Both IR steppers step {!Codegen.Soa.buf} levels built from fixed-size
    segments whose columns come from one process-wide level store: a
    level hands its columns back as soon as it has been stepped and never
    copies a row as it grows, so a run holds only its live frontier and a
    steady-state run allocates no level storage.

    The schedule is the engine's, root included: a root level that
    already holds [max_block] frames starts blocked (one [Switch]), so
    the backends emit the engine's [Level] stream.

    Both produce bit-equal reducers, task counts and scheduler counters
    for the same source and strategy; the differential suite enforces
    this.  Compare with {!Engine}, which runs the {e cost model} over
    native specs and reports modeled cycles: backends report wall-clock
    throughput instead and exist so compiled-vs-interpreted is a pure
    dispatch measurement.

    The scheduler is shared and generic over a level-stepper: one loop
    over a stack of pending levels, whose first phase in domains mode is
    the breadth-first frontier expansion.  Budgets, per-level fault
    recovery, wall-clock timing and the chunked-domains mode (the cost
    model's own driver, {!Domain_sched.run_chunks}) are the same for
    every source and backend, so a future C-stub or FPGA-style backend is
    a third {!t} value, not a rewrite. *)

type result = {
  reducers : (string * int) list;  (** declaration order *)
  tasks : int;
  base_tasks : int;
  max_depth : int;
  switches : int;
  reexpansions : int;
  wall_seconds : float;  (** wall-clock of the execution proper *)
}

val equal : result -> result -> bool
(** Structural equality of two results, excluding the host
    [wall_seconds] (as {!Report.equal}). *)

type source = Ir of Blocked_ast.t | Native of Spec.t

type opts = {
  strategy : Policy.strategy;
  max_tasks : int;
  telemetry : Telemetry.t option;
  faults : Fault.plan;
      (** [Alloc] trips once per level, before any of its rows run; a
          tripped level re-runs through the same stepper with the site
          disarmed for its subtree, so a faulted run returns exactly the
          fault-free result *)
  budgets : Supervisor.budgets;
      (** [wall_deadline] and [max_live_frames], checked at level
          boundaries; [deadline] (modeled cycles) does not apply *)
  domains : int option;
      (** [None]: plain single-context run.  [Some n]: chunked run — the
          frontier is expanded serially to {!Domain_sched.default_chunks}
          frames and run through {!Domain_sched.run_chunks} on [n]
          domains; results are independent of [n].  Budgets and the
          fault site apply per context: the expansion and each chunk.  A
          level that trips during expansion is disarmed only up to the
          frontier; each chunk runs re-armed under its own
          {!Fault.split} plan.  Chunk [Fault]/[Fallback] events are
          replayed onto [telemetry] after the join, and the lowest-index
          chunk's exception is re-raised as it was raised. *)
}

val default_opts : opts
(** [Hybrid { max_block = 256; reexpand = true }], 20M tasks, no
    telemetry, no faults, no budgets, [domains = None]. *)

type t = {
  name : string;  (** CLI name: ["blocked"] or ["compiled"] *)
  description : string;
  exec : opts -> source -> int array list -> result;
}

val interp : t
val compiled : t
val all : t list

val run : ?opts:opts -> t -> source -> roots:int array list -> result
(** Execute from the given root frames (each one frame per program
    parameter / spec field).  Raises {!Vc_error.Error} on budget
    violations, [Invalid_argument] on malformed roots.  A chunked run
    raises a chunk's exception unchanged, as a single-context run does;
    {!Supervisor.run} types both alike ([Vc_error.of_exn ~phase:Execute]
    for anything but a {!Vc_error.Error}). *)
