(** Execution backends over the blocked IR.

    A backend executes a program source — a DSL program's blocked IR, or a
    native {!Spec.t} — with the Fig. 6 schedule (bfs levels, switch to
    per-site blocked execution at [max_block], re-expansion of shrunken
    blocks) at raw OCaml speed, with no cost model.  Two instances:

    - {!interp} ("blocked"): the {!Blocked_interp} closure stepper for IR
      sources (per-thread closure dispatch over list levels), spec
      callbacks over ThreadBlocks for native sources;
    - {!compiled}: per-spawn-site specialized {!Codegen.Soa} step kernels
      over unboxed SoA frames for IR sources (native sources use the same
      callback path — a native spec is already compiled OCaml).

    Both produce bit-equal reducers, task counts and scheduler counters
    for the same source and strategy; the differential suite enforces
    this.  Compare with {!Engine}, which runs the {e cost model} over
    native specs and reports modeled cycles: backends report wall-clock
    throughput instead and exist so compiled-vs-interpreted is a pure
    dispatch/layout measurement.

    The scheduler is shared and generic over a level-stepper: budgets,
    per-level fault quarantine, wall-clock timing and the chunked-domains
    mode ({!Domain_sched.run_chunks}) are the same for every source and
    backend, so a future C-stub or FPGA-style backend is a third {!t}
    value, not a rewrite. *)

type result = {
  reducers : (string * int) list;  (** declaration order *)
  tasks : int;
  base_tasks : int;
  max_depth : int;
  switches : int;
  reexpansions : int;
  wall_seconds : float;  (** wall-clock of the execution proper *)
}

type source = Ir of Blocked_ast.t | Native of Spec.t

type opts = {
  strategy : Policy.strategy;
  max_tasks : int;
  telemetry : Telemetry.t option;
  faults : Fault.plan;
  recover : bool;
      (** re-run faulted levels on the scalar path (bit-equal reducers and
          task counts; switch/re-expansion counters legitimately differ) *)
  budgets : Supervisor.budgets;
      (** [wall_deadline] and [max_live_frames], checked at level
          boundaries; [deadline] (modeled cycles) does not apply *)
  domains : int option;
      (** [None]: plain single-context run.  [Some n]: chunked run — the
          frontier is expanded serially to {!Domain_sched.default_chunks}
          frames, dealt round-robin into at most that many chunks, and run
          on [min n chunks] stealing domains (at most the host's
          recommended domain count); results are independent of [n].
          Chunk [Fault]/[Fallback] events are replayed onto [telemetry]
          after the join. *)
}

val default_opts : opts
(** [Hybrid { max_block = 256; reexpand = true }], 20M tasks, no
    telemetry, no faults, [recover = true], no budgets, [domains = None]. *)

type t = {
  name : string;  (** CLI name: ["blocked"] or ["compiled"] *)
  description : string;
  exec : opts -> source -> int array list -> result;
}

val interp : t
val compiled : t
val all : t list
val find : string -> t option

val run : ?opts:opts -> t -> source -> roots:int array list -> result
(** Execute from the given root frames (each one frame per program
    parameter / spec field).  Raises {!Vc_error.Error} on budget
    violations and on unrecovered faults, [Invalid_argument] on malformed
    roots. *)

val roots_of : source -> int array list
(** The root frames a native spec carries.  Raises [Invalid_argument] for
    IR sources (DSL programs take arguments, not baked-in roots). *)
