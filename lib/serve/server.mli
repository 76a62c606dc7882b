(** The [vcilk serve] daemon: a fault-contained job server over Unix and
    loopback-TCP sockets.

    Requests (newline-delimited JSON, see {!Protocol}) are admitted
    against a bounded queue and executed on a persistent
    {!Vc_exp.Pool.worker_pool} of domains over one shared
    {!Vc_exp.Sweep.ctx}, so shuffle/prefix tables, the sweep memo and the
    disk run cache stay warm across requests.

    Robustness contract:
    - {e admission control}: when the queue holds [max_queue] jobs, new
      work is rejected with an [overloaded] response (typed
      [Queue_depth] budget error) instead of growing without bound;
    - {e containment}: a request that raises produces an [internal]
      response; worker domains and the accept loop never die on job or
      client behavior;
    - {e typed protocol errors}: malformed frames, oversized frames and
      idle read timeouts get [bad_request]/[timeout] responses (and close
      only the offending connection);
    - {e per-request budgets}: request deadlines are clamped against the
      operator ceiling ({!Vc_core.Supervisor.clamp_budgets}) and enforced
      by the supervisor;
    - {e graceful drain}: {!stop} stops accepting, finishes every queued
      and in-flight job, flushes the run cache and telemetry, then
      returns — the SIGTERM path exits 0. *)

type config = {
  socket_path : string option;  (** Unix-domain listen socket *)
  tcp_port : int option;  (** loopback TCP listen port; [0] = ephemeral *)
  workers : int;  (** pool domains *)
  max_queue : int;  (** admission-control bound on queued jobs *)
  max_frame : int;  (** request frame size limit, bytes *)
  read_timeout : float;  (** idle seconds before a connection is closed *)
  max_delay_ms : int;  (** clamp on the request [delay_ms] testing aid *)
  slow_ms : float option;
      (** log any request whose wall time reaches this threshold, with
          its full queue_wait/exec/serialize phase breakdown *)
  quick : bool;  (** serve quick-scale workloads *)
  cache_dir : string option;  (** persistent run cache root *)
  workload_dirs : string list;  (** [.rtp] directories loaded at start *)
  ceiling : Vc_core.Supervisor.budgets;
      (** operator budget ceiling; requests can tighten, never relax *)
  faults : Vc_core.Fault.plan;
      (** armed plan = chaos mode: injected faults recover to bit-equal
          results; the run cache is not persisted *)
  telemetry : out_channel option;
      (** shared JSONL stream; every line is tagged with the request's
          trace id.  Flushed on drain; the caller owns closing it. *)
}

val default_config : config
(** No listeners (callers must set [socket_path] and/or [tcp_port]),
    2 workers, [max_queue] 64, [max_frame] 65536, 30 s read timeout,
    [max_delay_ms] 5000, no slow-request threshold, full scale, no
    cache, default workload dirs
    ([examples/dsl], [test/corpus]), no ceiling, no faults, stats window
    1024. *)

type t

val start : config -> (t, Vc_core.Vc_error.t) result
(** Bind the listeners, load workloads, spawn the pool and accept
    threads.  Typed errors cover: no listener configured, bind/listen
    failures.  Workload-directory load failures are logged and skipped —
    a bad [.rtp] corpus must not keep the daemon down. *)

val stop : t -> unit
(** Graceful drain (idempotent): stop accepting connections and
    requests, finish queued and in-flight jobs, wait for connections to
    close, join the pool, persist the run cache, flush telemetry. *)

val draining : t -> bool
val stats : t -> Stats.t
val queue_depth : t -> int
val stats_line : t -> string

val tcp_port : t -> int option
(** The bound TCP port (resolves [tcp_port = 0] to the ephemeral port
    the OS picked). *)

val endpoints : t -> string
(** Human-readable listen endpoints, for the startup log line. *)
