(** Discrete-event simulation of a work-stealing scheduler.

    Simulates the runtime the paper's §2 describes (a Cilk-style
    work-stealing pool) at job granularity: jobs are dealt round-robin
    across the workers' deques in index order (the hybrid domain
    scheduler's initial chunk assignment, {!Domain_sched.run_chunks});
    every worker executes jobs from its deque's bottom, and when empty
    picks a random victim, steals one job from the top, and executes it
    immediately, paying [steal_cost] cycles per attempt (successful or
    not).

    Jobs are atomic with precomputed costs (the engine measures them);
    the simulation is deterministic given [seed]. *)

type job = { id : int; cost : float }

type stats = {
  makespan : float;  (** completion time of the last job *)
  total_work : float;  (** sum of job costs *)
  busy : float array;  (** per-worker executing time *)
  steals : int;  (** successful steals *)
  failed_steals : int;  (** attempts on empty or busy-less victims *)
  jobs_run : int array;  (** per-worker job counts *)
  steal_log : (int * int * int) list;
      (** successful steals in simulated-time order: (thief, victim, job
          id) — the modeled schedule the domain scheduler replays into
          telemetry *)
}

val simulate : ?steal_cost:float -> ?seed:int -> workers:int -> job list -> stats
(** [steal_cost] defaults to 200 cycles — a cache-line ping-pong plus
    deque CAS — and [seed] to 1.  Raises [Invalid_argument] when
    [workers < 1].  An empty job list yields a zero makespan. *)

val utilization : stats -> float
(** Mean busy fraction over the makespan (1.0 = perfectly balanced, no
    idling). *)
