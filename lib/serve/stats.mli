(** Serve-daemon operational counters and the [/stats] line protocol.

    One instance per daemon, shared by every connection thread and pool
    worker.  One latency store, {!Vc_core.Metrics.Histogram}, in two
    views: lifetime histograms for wall time and each request phase
    (exact counts and tail quantiles over the daemon's whole life — the
    [/metrics] exposition, [p999_wall_ms] and the [BENCH_serve.json]
    artifact), and one wall-time histogram per second of a 12-slot wheel
    (the [/stats] [rps_10s] and windowed [p50]/[p99]/[max_wall_ms] —
    {e current} latency over the last 10 full seconds plus the current
    one).  Rendered
    two ways: a one-line [key=value] text form (greppable from [nc] and
    CI logs) and a JSON object (the [op:"stats"] response body). *)

type t

val create : unit -> t
(** Fresh counters; the histograms have the default fixed bucket
    layout. *)

(** {1 Recording} *)

val conn_opened : t -> unit
val conn_closed : t -> unit
val accepted : t -> unit
val rejected_overload : t -> unit
val rejected_protocol : t -> unit
(** Malformed frames, oversized frames, read timeouts. *)

val rejected_draining : t -> unit
val job_started : t -> unit

val job_finished :
  t ->
  bench:string ->
  engine:string ->
  status:string ->
  ok:bool ->
  wall_ms:float ->
  queue_wait_ms:float ->
  exec_ms:float ->
  serialize_ms:float ->
  unit
(** One completed request: [ok:false] counts a typed error response
    (budget, fault, internal); the wall sample and the three phase
    samples are recorded either way, the second-wheel throughput window
    ticks, and the [(bench, engine, status)] breakdown row increments. *)

val bump : t -> bench:string -> engine:string -> status:string -> unit
(** Increment a breakdown row without a completion (admission-control
    rejections that never reach a worker). *)

(** {1 Reading} *)

val in_flight : t -> int
val completed : t -> int

val rate : t -> float
(** Completed requests per second over the last ~10 full seconds
    (capped at the daemon's uptime; the current partial second is
    excluded). *)

val uptime_s : t -> float

val breakdown : t -> ((string * string * string) * int) list
(** [(bench, engine, status), count] rows, sorted. *)

val wall_hist : t -> Vc_core.Metrics.Histogram.t
val queue_hist : t -> Vc_core.Metrics.Histogram.t
val exec_hist : t -> Vc_core.Metrics.Histogram.t
val serialize_hist : t -> Vc_core.Metrics.Histogram.t

type field = I of int | F of float

val snapshot : t -> queue_depth:int -> (string * field) list
(** The raw field list behind {!to_line}/{!to_json}, for renderers with
    their own framing (the [/metrics] Prometheus exposition). *)

val to_line : t -> queue_depth:int -> string
(** ["stats uptime_s=... queue_depth=... in_flight=... accepted=...
    rejected_overload=... rejected_protocol=... rejected_draining=...
    completed_ok=... completed_err=... rps_10s=... connections=...
    p50_wall_ms=... p99_wall_ms=... p999_wall_ms=... max_wall_ms=..."] *)

val to_json : t -> queue_depth:int -> Vc_exp.Jsonx.t
(** The same snapshot as a JSON object (same field names, minus the
    leading [stats] token). *)
