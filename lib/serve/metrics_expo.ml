(* Prometheus text exposition for the serve daemon.

   The wire protocol is newline-delimited, not HTTP, so the rendering is
   framed for it: a client sends the bare line [/metrics] and reads lines
   until the OpenMetrics-style [# EOF] terminator.  Everything else is
   stock exposition format — counters, gauges, and histograms whose
   [le]-labelled bucket series are cumulative — so the body pastes
   straight into any Prometheus-family scraper or parser. *)

module H = Vc_core.Metrics.Histogram

let buf_add = Buffer.add_string

(* Prometheus sample values: plain decimal, [+Inf] for the unbounded
   bucket.  9 significant digits keeps [le] labels short but unambiguous
   (adjacent bucket bounds differ by ~12%). *)
let num f =
  if f = infinity then "+Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> buf_add b "\\\\"
      | '"' -> buf_add b "\\\""
      | '\n' -> buf_add b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let header b ~name ~help ~kind =
  buf_add b (Printf.sprintf "# HELP %s %s\n" name help);
  buf_add b (Printf.sprintf "# TYPE %s %s\n" name kind)

let sample b ~name ?(labels = []) v =
  let lbl =
    match labels with
    | [] -> ""
    | kvs ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
               kvs)
        ^ "}"
  in
  buf_add b (Printf.sprintf "%s%s %s\n" name lbl v)

(* One histogram family: cumulative [le] buckets, then [_sum]/[_count].
   [labels] (e.g. [("phase", "exec")]) apply to every series so the four
   phase histograms share one family. *)
let histogram_series b ~name ?(labels = []) h =
  let cum = H.cumulative h in
  Array.iter
    (fun (le, c) ->
      sample b ~name:(name ^ "_bucket")
        ~labels:(labels @ [ ("le", num le) ])
        (string_of_int c))
    cum;
  sample b ~name:(name ^ "_sum") ~labels (num (H.sum h));
  sample b ~name:(name ^ "_count") ~labels (string_of_int (H.count h))

let render st ~queue_depth =
  let b = Buffer.create 8192 in
  let snap = Stats.snapshot st ~queue_depth in
  let get k =
    match List.assoc_opt k snap with
    | Some (Stats.I i) -> string_of_int i
    | Some (Stats.F f) -> num f
    | None -> "0"
  in
  let gauge name help key =
    header b ~name ~help ~kind:"gauge";
    sample b ~name (get key)
  in
  gauge "vcilk_uptime_seconds" "Seconds since the daemon started"
    "uptime_s";
  gauge "vcilk_queue_depth" "Requests admitted but not yet started"
    "queue_depth";
  gauge "vcilk_in_flight" "Requests currently executing on a worker"
    "in_flight";
  gauge "vcilk_connections" "Currently open client connections"
    "connections";
  gauge "vcilk_throughput_rps"
    "Completed requests per second over the last ~10s window" "rps_10s";
  (* the backends' process-wide level store, for comparison with RSS *)
  let store_gauge name help v =
    header b ~name ~help ~kind:"gauge";
    sample b ~name (string_of_int v)
  in
  store_gauge "vcilk_level_store_columns"
    "Free 1024-int level-store columns the process retains now"
    (Vc_core.Codegen.Soa.stored ());
  store_gauge "vcilk_level_store_allocated_columns"
    "Level-store columns ever allocated by this process"
    (Vc_core.Codegen.Soa.allocated ());
  header b ~name:"vcilk_connections_opened_total"
    ~help:"Client connections ever accepted" ~kind:"counter";
  sample b ~name:"vcilk_connections_opened_total" (get "connections_total");
  header b ~name:"vcilk_accepted_total"
    ~help:"Requests admitted to the job queue" ~kind:"counter";
  sample b ~name:"vcilk_accepted_total" (get "accepted");
  header b ~name:"vcilk_rejected_total"
    ~help:"Requests rejected before execution, by reason" ~kind:"counter";
  List.iter
    (fun (reason, key) ->
      sample b ~name:"vcilk_rejected_total"
        ~labels:[ ("reason", reason) ]
        (get key))
    [
      ("overload", "rejected_overload");
      ("protocol", "rejected_protocol");
      ("draining", "rejected_draining");
    ];
  header b ~name:"vcilk_completed_total"
    ~help:"Completed requests by final disposition" ~kind:"counter";
  sample b ~name:"vcilk_completed_total"
    ~labels:[ ("status", "ok") ]
    (get "completed_ok");
  sample b ~name:"vcilk_completed_total"
    ~labels:[ ("status", "err") ]
    (get "completed_err");
  header b ~name:"vcilk_requests_total"
    ~help:"Request breakdown by benchmark, engine and reply status"
    ~kind:"counter";
  List.iter
    (fun ((bench, engine, status), n) ->
      sample b ~name:"vcilk_requests_total"
        ~labels:[ ("bench", bench); ("engine", engine); ("status", status) ]
        (string_of_int n))
    (Stats.breakdown st);
  header b ~name:"vcilk_request_wall_ms"
    ~help:"End-to-end request wall time (admit to reply), milliseconds"
    ~kind:"histogram";
  histogram_series b ~name:"vcilk_request_wall_ms" (Stats.wall_hist st);
  header b ~name:"vcilk_request_phase_ms"
    ~help:"Per-phase request time (queue_wait, exec, serialize), milliseconds"
    ~kind:"histogram";
  List.iter
    (fun (phase, h) ->
      histogram_series b ~name:"vcilk_request_phase_ms"
        ~labels:[ ("phase", phase) ]
        h)
    [
      ("queue_wait", Stats.queue_hist st);
      ("exec", Stats.exec_hist st);
      ("serialize", Stats.serialize_hist st);
    ];
  buf_add b "# EOF";
  Buffer.contents b
