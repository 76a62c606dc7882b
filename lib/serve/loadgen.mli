(** Open-loop load generator for the serve daemon.

    Replays a weighted benchmark mix at a fixed request rate over a set
    of persistent connections, then checks every [ok] response for {e bit
    equality} against an in-process batch reference: {!Vc_exp.Sweep.run}
    on the very point each request names ({!Protocol.point}), so engine,
    strategy and block all reach the reference — the serving path must
    never change results, only their delivery.

    The schedule is open-loop: request [k] is sent at [k/rps] seconds
    regardless of how fast responses come back, so pushing [rps] past
    the daemon's capacity builds real queue depth and exercises
    admission control ([overloaded] responses are expected outcomes
    under deliberate overload, not failures — see {!passed}). *)

type mix = (string * int) list
(** benchmark name → weight *)

val parse_mix : string -> (mix, string) result
(** Parse ["fib:4,uts:1"] (weight defaults to 1: ["fib,uts"] works). *)

type summary = {
  sent : int;
  ok : int;
  overloaded : int;  (** admission-control rejections *)
  budget_exceeded : int;  (** per-request deadline violations *)
  rejected : int;  (** other error statuses (protocol, draining, ...) *)
  lost : int;  (** requests with no reply within the grace period *)
  divergences : (string * string) list;
      (** (request id, detail) for every [ok] reply that was not
          bit-equal to the batch reference *)
  p50_ms : float;
      (** client-observed round-trip latency; every percentile, the mean
          and the max come from [latency] (exact counts) *)
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
  latency : Vc_core.Metrics.Histogram.t;
      (** every round-trip sample, exact and mergeable — the store behind
          every percentile above *)
  stats_line : string option;  (** the daemon's final [/stats] line *)
}

val passed : summary -> bool
(** No divergences and nothing lost.  Overload and budget rejections do
    not fail a run — they are the backpressure behaviors under test. *)

val pp_summary : Format.formatter -> summary -> unit
(** One greppable line: [loadgen sent=... ok=... divergences=...]. *)

val fetch_stats : connect:(unit -> Unix.file_descr) -> string option
(** Probe [/stats] on a fresh connection: the one-line [key=value] body
    ([None] when the daemon is unreachable). *)

val fetch_metrics : connect:(unit -> Unix.file_descr) -> string option
(** Probe [/metrics] on a fresh connection: the Prometheus text body up
    to and including its ["# EOF"] terminator ([None] when the daemon is
    unreachable). *)

val run :
  connect:(unit -> Unix.file_descr) ->
  rps:float ->
  duration:float ->
  mix:mix ->
  ?engine:string ->
  ?strategy:string ->
  ?block:int ->
  ?deadline_frac:float ->
  ?delay_ms:int ->
  ?connections:int ->
  ?seed:int ->
  ?grace:float ->
  ?workload_dirs:string list ->
  quick:bool ->
  unit ->
  (summary, Vc_core.Vc_error.t) result
(** Drive [rps × duration] requests (at least 1) drawn from [mix] by a
    seeded weighted choice, round-robin over [connections] (default 4)
    sockets from [connect].  [deadline_frac f] attaches a modeled-cycle
    deadline of [f × reference-cycles] to every engine request;
    [delay_ms] attaches synthetic server-side think time (the
    backpressure lever).  After the send window closes, replies are
    awaited for [grace] seconds (default 30) before the remainder counts
    as [lost]; a final [/stats] probe is captured on a fresh connection.
    Typed errors cover mix resolution and
    reference-computation failures; connection failures during the run
    count as [lost], not errors. *)
