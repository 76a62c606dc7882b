(** A work-queue executor over OCaml 5 domains.

    The experiment sweep is embarrassingly parallel — every
    (benchmark × machine × strategy × block × compaction) point is an
    independent simulation — so the pool is deliberately simple: one
    shared atomic cursor over the task array, [jobs] domains racing to
    claim the next index.  Tasks must do their own synchronization around
    shared state (the sweep memo table is mutex-guarded).

    {!run} aborts the queue on the first failure; {!run_collect} contains
    per-task failures, except the budget violations that abort it.

    For a long-lived stream of independently submitted jobs (the serve
    daemon), use the persistent {!worker_pool} instead: its domains stay
    alive across jobs, and a raising job is contained rather than
    propagated. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

type failure = {
  index : int;  (** position of the task in the submitted list *)
  error : Vc_core.Vc_error.t;  (** classified error *)
}

val run : jobs:int -> (unit -> unit) list -> unit
(** Execute every task.  With [jobs <= 1] (or fewer than two tasks) the
    tasks run in the calling domain, in order, spawning nothing — the
    [--jobs 1] reference schedule.  Otherwise [min jobs (length tasks)]
    domains drain the queue.  The first failure aborts the queue and is
    re-raised verbatim in the caller after all domains have joined. *)

val run_collect : jobs:int -> (unit -> unit) list -> failure list
(** Like {!run}, but contains per-task failures instead of aborting: a
    failing task is recorded (worker-death containment — the rest of the
    queue keeps draining) and the failures are returned sorted by task
    index, [[]] when everything succeeded.  Deadline-like budget
    violations ([Deadline_cycles], [Deadline_wall], [Live_frames]) are
    still fatal and re-raise in the caller: every remaining task shares
    those caps.  Per-run resource exhaustion ([Task_budget], [Memory]) is
    contained like any other failure — one oversized point must not kill
    the sweep. *)

(** {1 Persistent worker pool}

    The serve daemon's execution substrate: [workers] long-lived domains
    draining an unbounded FIFO of submitted jobs, so state that is
    expensive to warm (shuffle/prefix tables, the sweep memo, the run
    cache) stays hot across requests.  Admission control (bounding the
    queue) is the {e caller's} job — count the jobs it has admitted and
    reject with a typed [Queue_depth] error before {!submit} when over
    budget; the pool itself never blocks a submitter. *)

type worker_pool

val start_pool : workers:int -> unit -> worker_pool
(** Spawn [max 1 workers] domains, idle until jobs arrive. *)

val submit : worker_pool -> (unit -> unit) -> [ `Queued | `Draining ]
(** Enqueue one job ([`Draining] after {!drain_pool} started: the job was
    NOT queued).  A job that raises is contained — logged, worker domain
    survives — so jobs that need their error must catch it themselves. *)

val pool_quiesce : worker_pool -> unit
(** Block until the pool is momentarily idle (no pending, no active).
    The pool stays usable — this is the drain barrier without the
    shutdown. *)

val drain_pool : worker_pool -> unit
(** Graceful shutdown: stop accepting, finish every queued and active
    job, join the domains.  Idempotent-ish: a second call returns
    immediately (no domains left to join). *)
