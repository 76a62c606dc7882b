(** Prometheus text exposition of the daemon's {!Stats}.

    Serves the bare [/metrics] request: counters
    ([vcilk_accepted_total], [vcilk_rejected_total{reason}],
    [vcilk_completed_total{status}], per-[(bench, engine, status)]
    [vcilk_requests_total]), gauges (queue depth, in-flight, open
    connections, windowed rps, and the backends' level store:
    [vcilk_level_store_columns] retained now,
    [vcilk_level_store_allocated_columns] ever allocated), and latency
    histograms with cumulative [le] buckets ([vcilk_request_wall_ms] plus
    [vcilk_request_phase_ms{phase}] for queue_wait / exec / serialize).
    Because the serve protocol is line-framed rather than HTTP, the body
    ends with the OpenMetrics-style [# EOF] line — clients read until it
    appears; the text above it is standard exposition format. *)

val render : Stats.t -> queue_depth:int -> string
(** The full exposition body, terminated by ["# EOF"] (no trailing
    newline — the protocol's line writer appends it). *)
