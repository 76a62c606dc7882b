(* Serve-daemon tests: the wire protocol's typed edge cases (malformed,
   oversized, unknown, dropped, overloaded, deadline-exceeded — each of
   which must leave the daemon serving), graceful-drain semantics, the
   persistent worker pool's containment contract, budget clamping, the
   /stats windowed percentiles, and the exit-code taxonomy constants the
   CLI and CI assert against. *)

module Protocol = Vc_serve.Protocol
module Server = Vc_serve.Server
module Stats = Vc_serve.Stats
module Loadgen = Vc_serve.Loadgen
module E = Vc_core.Vc_error
module Supervisor = Vc_core.Supervisor
module Pool = Vc_exp.Pool

let status = Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Protocol.status_name s))
    ( = )

(* ------------------------------------------------------------ protocol *)

let check_parse_errors () =
  let is_protocol_error = function
    | Error { E.kind = E.Fault { site = E.Protocol; _ }; _ } -> true
    | _ -> false
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is a typed protocol error" line)
        true
        (is_protocol_error (Protocol.parse_request line)))
    [
      "not json at all";
      "[1,2,3]";
      "{\"op\":\"run\"}" (* missing bench *);
      "{\"bench\":\"fib\",\"engine\":\"gpu\"}";
      "{\"bench\":\"fib\",\"strategy\":\"dfs\"}";
      "{\"bench\":\"fib\",\"block\":0}";
      "{\"bench\":\"fib\",\"delay_ms\":-1}";
      "{\"bench\":42}";
      "{\"op\":\"explode\"}";
    ]

let check_request_roundtrip () =
  let req =
    {
      (Protocol.run_request ~bench:"uts") with
      id = "r-1";
      engine = "compiled";
      strategy = "noreexp";
      block = 512;
      deadline = Some 1e6;
      max_tasks = Some 1000;
      delay_ms = 5;
    }
  in
  match Protocol.parse_request (Protocol.request_line req) with
  | Error e -> Alcotest.fail (E.to_string e)
  | Ok req' ->
      Alcotest.(check bool) "request round-trips" true (req = req')

let check_status_mapping () =
  let budget resource =
    {
      E.kind = E.Budget_exceeded { resource; limit = 1.0; actual = 2.0 };
      phase = E.Execute;
      detail = "";
    }
  in
  let fault site =
    { E.kind = E.Fault { site; hint = E.Abort }; phase = E.Execute; detail = "" }
  in
  Alcotest.check status "queue-depth budget is overloaded" Protocol.Overloaded
    (Protocol.status_of_error (budget E.Queue_depth));
  Alcotest.check status "deadline budget is budget_exceeded"
    Protocol.Budget_limit
    (Protocol.status_of_error (budget E.Deadline_cycles));
  Alcotest.check status "protocol fault is bad_request" Protocol.Bad_request
    (Protocol.status_of_error (fault E.Protocol));
  Alcotest.check status "other faults stay faults" Protocol.Fault_
    (Protocol.status_of_error (fault E.Compaction));
  (* every status round-trips through its wire name *)
  List.iter
    (fun s ->
      Alcotest.(check (option status))
        (Protocol.status_name s) (Some s)
        (Protocol.status_of_string (Protocol.status_name s)))
    [
      Protocol.Ok_; Protocol.Overloaded; Protocol.Budget_limit;
      Protocol.Fault_; Protocol.Bad_request; Protocol.Unknown_bench;
      Protocol.Shutting_down; Protocol.Timeout_; Protocol.Internal;
    ]

(* The process-level exit taxonomy is defined once in Vc_error; the CLI
   man page, CI and this test all read the same constants. *)
let check_exit_taxonomy () =
  Alcotest.(check int) "ok" 0 E.exit_ok;
  Alcotest.(check int) "detected failure" 1 E.exit_failure;
  Alcotest.(check int) "budget exceeded" 2 E.exit_budget;
  let budget =
    {
      E.kind =
        E.Budget_exceeded
          { resource = E.Deadline_wall; limit = 1.0; actual = 2.0 };
      phase = E.Execute;
      detail = "";
    }
  in
  let fault =
    {
      E.kind = E.Fault { site = E.Scheduler; hint = E.Abort };
      phase = E.Execute;
      detail = "";
    }
  in
  Alcotest.(check int) "budget errors exit 2" E.exit_budget (E.exit_code budget);
  Alcotest.(check int) "faults exit 1" E.exit_failure (E.exit_code fault)

(* ------------------------------------------------- supporting modules *)

let check_clamp_budgets () =
  let ceiling =
    Supervisor.budgets ~deadline:100.0 ~max_live_frames:50 ()
  in
  let req = Supervisor.budgets ~deadline:500.0 ~wall_deadline:2.0 () in
  let clamped = Supervisor.clamp_budgets ~ceiling req in
  Alcotest.(check (option (float 0.0))) "request cannot relax the ceiling"
    (Some 100.0) clamped.Supervisor.deadline;
  Alcotest.(check (option (float 0.0))) "request adds its own budget"
    (Some 2.0) clamped.Supervisor.wall_deadline;
  Alcotest.(check (option int)) "ceiling applies when request is silent"
    (Some 50) clamped.Supervisor.max_live_frames;
  let tighter = Supervisor.budgets ~deadline:10.0 () in
  Alcotest.(check (option (float 0.0))) "request can tighten"
    (Some 10.0)
    (Supervisor.clamp_budgets ~ceiling tighter).Supervisor.deadline

(* The /stats windowed percentiles come from the second wheel's
   histograms: over samples just recorded (all inside the window) they
   equal the exact histogram's quantiles over the same samples. *)
let check_windowed_percentiles () =
  let st = Stats.create () in
  let exact = Vc_core.Metrics.Histogram.create () in
  List.iter
    (fun ms ->
      Vc_core.Metrics.Histogram.add exact ms;
      Stats.job_finished st ~bench:"fib" ~engine:"engine" ~status:"ok" ~ok:true
        ~wall_ms:ms ~queue_wait_ms:0.0 ~exec_ms:ms ~serialize_ms:0.0)
    [ 0.3; 1.0; 2.5; 4.0; 7.5; 12.0; 40.0; 90.0; 250.0; 1200.0 ];
  let field k =
    match List.assoc k (Stats.snapshot st ~queue_depth:0) with
    | Stats.F f -> f
    | Stats.I i -> float_of_int i
  in
  List.iter
    (fun (k, q) ->
      Alcotest.(check (float 0.0)) k
        (Vc_core.Metrics.Histogram.quantile exact q)
        (field k))
    [ ("p50_wall_ms", 0.5); ("p99_wall_ms", 0.99) ];
  Alcotest.(check (float 0.0)) "max_wall_ms" 1200.0 (field "max_wall_ms")

let check_worker_pool () =
  let pool = Pool.start_pool ~workers:2 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 16 do
    match Pool.submit pool (fun () -> Atomic.incr counter) with
    | `Queued -> ()
    | `Draining -> Alcotest.fail "pool refused work before drain"
  done;
  Pool.pool_quiesce pool;
  Alcotest.(check int) "every job ran" 16 (Atomic.get counter);
  (* containment: a raising job must not kill its worker domain *)
  ignore (Pool.submit pool (fun () -> failwith "job dies"));
  ignore (Pool.submit pool (fun () -> Atomic.incr counter));
  Pool.pool_quiesce pool;
  Alcotest.(check int) "worker survived a raising job" 17 (Atomic.get counter);
  Pool.drain_pool pool;
  (match Pool.submit pool (fun () -> Atomic.incr counter) with
  | `Draining -> ()
  | `Queued -> Alcotest.fail "drained pool accepted work");
  Alcotest.(check int) "post-drain job never ran" 17 (Atomic.get counter);
  Pool.drain_pool pool (* idempotent *)

let check_jitter_retries () =
  (* a task that fails twice then succeeds is healed by seeded
     decorrelated-jitter retries, deterministically *)
  let attempts = ref 0 in
  Pool.run ~retries:3 ~backoff:0.001 ~jitter_seed:42 ~jobs:1
    [
      (fun () ->
        incr attempts;
        if !attempts < 3 then failwith "transient");
    ];
  Alcotest.(check int) "healed on the third attempt" 3 !attempts;
  (* exhausted retries still raise the original error *)
  match
    Pool.run ~retries:1 ~backoff:0.001 ~jitter_seed:42 ~jobs:1
      [ (fun () -> failwith "permanent") ]
  with
  | () -> Alcotest.fail "exhausted retries must raise"
  | exception Failure _ -> ()

let check_trace_tagging () =
  let st =
    { Vc_core.Telemetry.seq = 0; ts = 0.0; dur = 0.0;
      ev = Vc_core.Telemetry.Mark "x" }
  in
  let line = Vc_core.Telemetry.jsonl_of_event ~trace:"t-000007" st in
  let nl = String.length {|"trace":"t-000007"|} in
  let has =
    let needle = {|"trace":"t-000007"|} in
    let ll = String.length line in
    let rec go i =
      if i + nl > ll then false
      else if String.sub line i nl = needle then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "jsonl line carries the trace id" true has

(* ------------------------------------------------------ daemon fixture *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vcserve-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(workers = 2) ?(max_queue = 8) ?(max_frame = 65536)
    ?(read_timeout = 30.0) ?telemetry f =
  let path = fresh_socket () in
  let cfg =
    {
      Server.default_config with
      socket_path = Some path;
      workers;
      max_queue;
      max_frame;
      read_timeout;
      quick = true;
      cache_dir = None;
      workload_dirs = [];
      telemetry;
    }
  in
  match Server.start cfg with
  | Error e -> Alcotest.fail (E.to_string e)
  | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () -> f path srv)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_reply reader =
  match Protocol.read_frame ~timeout:30.0 ~max_frame:(1 lsl 20) reader with
  | Protocol.Frame l -> (
      match Protocol.parse_reply l with
      | Ok r -> r
      | Error m -> Alcotest.fail ("unparseable reply: " ^ m))
  | Protocol.Eof -> Alcotest.fail "connection closed before reply"
  | Protocol.Timeout_frame -> Alcotest.fail "timed out waiting for reply"
  | Protocol.Oversized -> Alcotest.fail "oversized reply"

let run_fib ?(id = "q") ?deadline ?delay_ms fd reader =
  let req =
    {
      (Protocol.run_request ~bench:"fib") with
      id;
      deadline;
      delay_ms = Option.value delay_ms ~default:0;
    }
  in
  Protocol.write_line fd (Protocol.request_line req);
  read_reply reader

(* wait until an asynchronous counter lands in the stats line *)
let eventually ?(tries = 50) pred =
  let rec go n =
    if pred () then true
    else if n <= 0 then false
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go tries

let contains line needle =
  let nl = String.length needle and ll = String.length line in
  let rec go i =
    if i + nl > ll then false
    else if String.sub line i nl = needle then true
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------- daemon tests *)

let check_serves_and_answers () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  let r = run_fib ~id:"a" fd reader in
  Alcotest.check status "fib runs" Protocol.Ok_ r.Protocol.r_status;
  Alcotest.(check string) "id echoes" "a" r.Protocol.r_id;
  Alcotest.(check bool) "trace assigned" true (r.Protocol.r_trace <> "");
  let r2 = run_fib ~id:"b" fd reader in
  Alcotest.(check bool) "traces are distinct" true
    (r.Protocol.r_trace <> r2.Protocol.r_trace);
  Alcotest.(check bool) "reducers arrive" true (r.Protocol.r_reducers <> []);
  Alcotest.(check bool) "tasks counted" true (r.Protocol.r_tasks > 0);
  Unix.close fd

let send_request fd reader req =
  Protocol.write_line fd (Protocol.request_line req);
  read_reply reader

let int_field (r : Protocol.reply) name =
  Vc_exp.Jsonx.(to_int (member name r.Protocol.r_raw))

(* A plain wall-clock request is served from the sweep memo under a key
   that includes the strategy: bfs never switches to blocked execution,
   re-expansion at a small block does. *)
let check_wall_strategy_honoured () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  let switches strategy =
    let r =
      send_request fd reader
        {
          (Protocol.run_request ~bench:"fib") with
          engine = "compiled";
          strategy;
          block = 16;
        }
    in
    Alcotest.check status (strategy ^ " runs") Protocol.Ok_ r.Protocol.r_status;
    int_field r "switches"
  in
  Alcotest.(check int) "bfs never switches" 0 (switches "bfs");
  Alcotest.(check bool) "reexp switches" true (switches "reexp" > 0);
  Unix.close fd

(* The memo branch (a plain request) and the fresh supervised branch (a
   task cap far above the tree) of the one dispatch agree on every
   engine family. *)
let check_plain_equals_budgeted () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  List.iter
    (fun engine ->
      let req = { (Protocol.run_request ~bench:"fib") with engine } in
      let plain = send_request fd reader req in
      let budgeted =
        send_request fd reader { req with max_tasks = Some 1_000_000 }
      in
      Alcotest.check status (engine ^ " plain ok") Protocol.Ok_
        plain.Protocol.r_status;
      Alcotest.check status (engine ^ " budgeted ok") Protocol.Ok_
        budgeted.Protocol.r_status;
      Alcotest.(check bool) (engine ^ " budgeted ran supervised") true
        (Vc_exp.Jsonx.member "faults_seen" budgeted.Protocol.r_raw
        <> Vc_exp.Jsonx.Null);
      Alcotest.(check (list (pair string int))) (engine ^ " reducers")
        plain.Protocol.r_reducers budgeted.Protocol.r_reducers;
      List.iter
        (fun field ->
          Alcotest.(check int) (engine ^ " " ^ field) (int_field plain field)
            (int_field budgeted field))
        [ "tasks"; "base_tasks"; "max_depth" ])
    [ "engine"; "blocked"; "compiled" ];
  Unix.close fd

let check_malformed_keeps_serving () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  Protocol.write_line fd "this is not json";
  let r = read_reply reader in
  Alcotest.check status "malformed frame is bad_request" Protocol.Bad_request
    r.Protocol.r_status;
  (* same connection keeps working *)
  let r2 = run_fib fd reader in
  Alcotest.check status "daemon keeps serving" Protocol.Ok_
    r2.Protocol.r_status;
  Unix.close fd

let check_oversized_closes_connection () =
  with_server ~max_frame:256 @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  Protocol.write_line fd (String.make 1000 'x');
  let r = read_reply reader in
  Alcotest.check status "oversized frame is bad_request" Protocol.Bad_request
    r.Protocol.r_status;
  Alcotest.(check bool) "oversized reply mentions the limit" true
    (contains r.Protocol.r_detail "max_frame");
  (match Protocol.read_frame ~timeout:5.0 ~max_frame:1024 reader with
  | Protocol.Eof -> ()
  | _ -> Alcotest.fail "oversized frame must close the connection");
  Unix.close fd;
  (* a fresh connection still works: only the offender was dropped *)
  let fd2 = connect path in
  let reader2 = Protocol.reader fd2 in
  let r2 = run_fib fd2 reader2 in
  Alcotest.check status "daemon keeps serving" Protocol.Ok_
    r2.Protocol.r_status;
  Unix.close fd2

let check_unknown_bench () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  Protocol.write_line fd
    (Protocol.request_line (Protocol.run_request ~bench:"no-such-bench"));
  let r = read_reply reader in
  Alcotest.check status "unknown benchmark is typed" Protocol.Unknown_bench
    r.Protocol.r_status;
  let r2 = run_fib fd reader in
  Alcotest.check status "daemon keeps serving" Protocol.Ok_
    r2.Protocol.r_status;
  Unix.close fd

let check_deadline_exceeded () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  let r = run_fib ~id:"tight" ~deadline:10.0 fd reader in
  Alcotest.check status "tiny deadline is budget_exceeded"
    Protocol.Budget_limit r.Protocol.r_status;
  Alcotest.(check bool) "detail names the resource" true
    (contains r.Protocol.r_detail "deadline-cycles");
  let r2 = run_fib fd reader in
  Alcotest.check status "daemon keeps serving" Protocol.Ok_
    r2.Protocol.r_status;
  Unix.close fd

let check_queue_full_rejection () =
  with_server ~workers:1 ~max_queue:1 @@ fun path srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  let n = 6 in
  for i = 1 to n do
    Protocol.write_line fd
      (Protocol.request_line
         {
           (Protocol.run_request ~bench:"fib") with
           id = Printf.sprintf "q%d" i;
           delay_ms = 200;
         })
  done;
  let replies = List.init n (fun _ -> read_reply reader) in
  let count s =
    List.length (List.filter (fun r -> r.Protocol.r_status = s) replies)
  in
  Alcotest.(check int) "every request got a reply" n (List.length replies);
  Alcotest.(check bool) "admitted requests completed" true (count Protocol.Ok_ >= 1);
  Alcotest.(check bool) "overflow was rejected with overloaded" true
    (count Protocol.Overloaded >= 1);
  Alcotest.(check int) "nothing fell through to other statuses" n
    (count Protocol.Ok_ + count Protocol.Overloaded);
  Alcotest.(check bool) "stats counted the rejects" true
    (eventually (fun () ->
         contains (Server.stats_line srv) "rejected_overload="
         && not (contains (Server.stats_line srv) "rejected_overload=0 ")));
  let r2 = run_fib fd reader in
  Alcotest.check status "daemon keeps serving after overload" Protocol.Ok_
    r2.Protocol.r_status;
  Unix.close fd

let check_connection_drop () =
  with_server @@ fun path srv ->
  (* drop a connection mid-frame: bytes written, no newline, then close *)
  let fd = connect path in
  ignore (Unix.write_substring fd "{\"id\":\"dropped" 0 14);
  Unix.close fd;
  Alcotest.(check bool) "mid-frame drop is a counted protocol event" true
    (eventually (fun () ->
         contains (Server.stats_line srv) "rejected_protocol=1"));
  (* the daemon is unharmed *)
  let fd2 = connect path in
  let reader2 = Protocol.reader fd2 in
  let r = run_fib fd2 reader2 in
  Alcotest.check status "daemon keeps serving" Protocol.Ok_ r.Protocol.r_status;
  Unix.close fd2

let check_read_timeout () =
  with_server ~read_timeout:0.3 @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  (* send nothing: the daemon must close the idle connection with a typed
     timeout response rather than hold the slot forever *)
  let r = read_reply reader in
  Alcotest.check status "idle connection gets a typed timeout"
    Protocol.Timeout_ r.Protocol.r_status;
  (match Protocol.read_frame ~timeout:5.0 ~max_frame:1024 reader with
  | Protocol.Eof -> ()
  | _ -> Alcotest.fail "timed-out connection must be closed");
  Unix.close fd

let check_stats_and_ping () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  ignore (run_fib fd reader);
  Protocol.write_line fd "/stats";
  (match Protocol.read_frame ~timeout:10.0 ~max_frame:(1 lsl 20) reader with
  | Protocol.Frame line ->
      Alcotest.(check bool) "stats line shape" true
        (String.length line > 6 && String.sub line 0 6 = "stats ");
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true (contains line key))
        [
          "queue_depth="; "in_flight="; "accepted="; "rejected_overload=";
          "p50_wall_ms="; "p99_wall_ms="; "p999_wall_ms="; "rps_10s=";
        ]
  | _ -> Alcotest.fail "no /stats line");
  Protocol.write_line fd "{\"id\":\"s\",\"op\":\"stats\"}";
  let r = read_reply reader in
  Alcotest.check status "JSON stats op" Protocol.Ok_ r.Protocol.r_status;
  Protocol.write_line fd "{\"id\":\"p\",\"op\":\"ping\"}";
  let r = read_reply reader in
  Alcotest.check status "ping" Protocol.Ok_ r.Protocol.r_status;
  Unix.close fd

let check_graceful_drain () =
  let telemetry_path =
    Filename.temp_file "vcserve-telemetry" ".jsonl"
  in
  let oc = open_out telemetry_path in
  let path, reply =
    with_server ~workers:1 ~telemetry:oc @@ fun path srv ->
    let fd = connect path in
    let reader = Protocol.reader fd in
    (* put one slow job in flight, then drain while it runs *)
    Protocol.write_line fd
      (Protocol.request_line
         {
           (Protocol.run_request ~bench:"fib") with
           id = "inflight";
           delay_ms = 300;
         });
    Unix.sleepf 0.1;
    Server.stop srv;
    (* the in-flight job completed and its response was written before
       the daemon finished draining *)
    let r = read_reply reader in
    Unix.close fd;
    (path, r)
  in
  close_out oc;
  Alcotest.(check string) "in-flight request answered during drain"
    "inflight" reply.Protocol.r_id;
  Alcotest.check status "and it completed ok" Protocol.Ok_
    reply.Protocol.r_status;
  Alcotest.(check bool) "socket file removed on drain" false
    (Sys.file_exists path);
  (* trace-tagged per-request telemetry was flushed on drain *)
  let ic = open_in telemetry_path in
  let contents =
    let b = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    Buffer.contents b
  in
  close_in ic;
  Sys.remove telemetry_path;
  Alcotest.(check bool) "telemetry stream carries the trace id" true
    (contains contents "\"trace\":\"t-000000\"");
  (* every completed request leaves its three phase spans in the stream *)
  List.iter
    (fun frame ->
      Alcotest.(check bool) (frame ^ " span present") true
        (contains contents ("\"name\":\"span:" ^ frame ^ "\"")))
    [ "queue_wait"; "exec"; "serialize" ]

(* ------------------------------------------------- observability tests *)

(* the stats breakdown table: one exact counter per bench × engine ×
   status cell, rows sorted by key *)
let check_stats_breakdown () =
  let st = Stats.create () in
  Stats.bump st ~bench:"uts" ~engine:"compiled" ~status:"overloaded";
  Stats.bump st ~bench:"fib" ~engine:"engine" ~status:"ok";
  Stats.bump st ~bench:"fib" ~engine:"engine" ~status:"ok";
  match Stats.breakdown st with
  | [ (("fib", "engine", "ok"), 2); (("uts", "compiled", "overloaded"), 1) ] ->
      ()
  | rows ->
      Alcotest.failf "unexpected breakdown (%d rows)" (List.length rows)

(* phase accounting: every ok reply carries queue_wait/exec/serialize
   and they account for the reported wall time (the acceptance bound is
   5%; the server defines wall as the telescoped phase sum, so this is
   exact up to float noise) *)
let check_phase_accounting () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  let r = run_fib ~id:"ph" ~delay_ms:20 fd reader in
  Alcotest.check status "request ok" Protocol.Ok_ r.Protocol.r_status;
  let f name = Vc_exp.Jsonx.(to_float (member name r.Protocol.r_raw)) in
  let qw = f "queue_wait_ms" and ex = f "exec_ms" and se = f "serialize_ms" in
  let wall = f "wall_ms" in
  Alcotest.(check bool) "phases are non-negative" true
    (qw >= 0.0 && ex >= 0.0 && se >= 0.0);
  Alcotest.(check bool) "exec phase covers the synthetic delay" true
    (ex >= 15.0);
  Alcotest.(check bool) "phases account for wall within 5%" true
    (abs_float ((qw +. ex +. se) -. wall) <= (0.05 *. wall) +. 1e-6);
  Unix.close fd

(* /metrics: Prometheus text shape — typed families, cumulative [le]
   buckets that are monotone and end at +Inf = _count, "# EOF" framing *)
let check_metrics_endpoint () =
  with_server @@ fun path _srv ->
  let fd = connect path in
  let reader = Protocol.reader fd in
  ignore (run_fib ~id:"m1" fd reader);
  ignore (run_fib ~id:"m2" fd reader);
  Unix.close fd;
  let body =
    match Loadgen.fetch_metrics ~connect:(fun () -> connect path) with
    | Some b -> b
    | None -> Alcotest.fail "no /metrics body"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains body needle))
    [
      "# TYPE vcilk_request_wall_ms histogram";
      "# TYPE vcilk_requests_total counter";
      "vcilk_completed_total{status=\"ok\"} 2";
      "vcilk_requests_total{bench=\"fib\",engine=\"engine\",status=\"ok\"} 2";
      "vcilk_request_phase_ms_bucket{phase=\"exec\",le=\"+Inf\"}";
      "# EOF";
    ];
  let lines = String.split_on_char '\n' body in
  (match List.rev lines with
  | last :: _ -> Alcotest.(check string) "EOF-terminated" "# EOF" last
  | [] -> Alcotest.fail "empty body");
  let value_of line =
    let i = String.rindex line ' ' in
    float_of_string (String.sub line (i + 1) (String.length line - i - 1))
  in
  let buckets =
    List.filter
      (fun l -> contains l "vcilk_request_wall_ms_bucket{")
      lines
    |> List.map value_of
  in
  Alcotest.(check bool) "wall histogram has buckets" true (buckets <> []);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true
    (monotone buckets);
  let count =
    List.find (fun l -> contains l "vcilk_request_wall_ms_count")
      lines
    |> value_of
  in
  Alcotest.(check (float 0.0)) "+Inf bucket equals _count"
    count
    (List.nth buckets (List.length buckets - 1));
  Alcotest.(check (float 0.0)) "two requests recorded" 2.0 count

let check_loadgen_mix_parse () =
  (match Loadgen.parse_mix "fib:4,uts:1" with
  | Ok [ ("fib", 4); ("uts", 1) ] -> ()
  | Ok _ -> Alcotest.fail "wrong mix"
  | Error m -> Alcotest.fail m);
  (match Loadgen.parse_mix "fib,uts" with
  | Ok [ ("fib", 1); ("uts", 1) ] -> ()
  | _ -> Alcotest.fail "default weight should be 1");
  (match Loadgen.parse_mix "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty mix must be rejected");
  match Loadgen.parse_mix "fib:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero weight must be rejected"

let check_loadgen_bit_equality () =
  with_server ~workers:2 ~max_queue:16 @@ fun path _srv ->
  let connect () = connect path in
  match
    Loadgen.run ~connect ~rps:40.0 ~duration:0.5 ~mix:[ ("fib", 1) ]
      ~connections:2 ~seed:7 ~grace:30.0 ~workload_dirs:[] ~quick:true ()
  with
  | Error e -> Alcotest.fail (E.to_string e)
  | Ok s ->
      Alcotest.(check bool) "requests were sent" true (s.Loadgen.sent > 0);
      Alcotest.(check int) "nothing lost" 0 s.Loadgen.lost;
      Alcotest.(check int) "no divergence vs batch" 0
        (List.length s.Loadgen.divergences);
      Alcotest.(check bool) "loadgen passes" true (Loadgen.passed s);
      Alcotest.(check bool) "stats captured" true
        (s.Loadgen.stats_line <> None);
      (* the client-side histogram saw every ok reply *)
      Alcotest.(check int) "histogram count = ok count" s.Loadgen.ok
        (Vc_core.Metrics.Histogram.count s.Loadgen.latency);
      (* every percentile is a bucket upper bound of the same histogram,
         so they are ordered *)
      Alcotest.(check bool) "percentiles are ordered" true
        (s.Loadgen.p50_ms <= s.Loadgen.p99_ms
        && s.Loadgen.p99_ms <= s.Loadgen.p999_ms)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing violations are typed" `Quick
            check_parse_errors;
          Alcotest.test_case "request render/parse round-trip" `Quick
            check_request_roundtrip;
          Alcotest.test_case "error -> status mapping" `Quick
            check_status_mapping;
          Alcotest.test_case "exit-code taxonomy constants" `Quick
            check_exit_taxonomy;
        ] );
      ( "support",
        [
          Alcotest.test_case "budget clamping is tightest-wins" `Quick
            check_clamp_budgets;
          Alcotest.test_case "windowed /stats percentiles = histogram" `Quick
            check_windowed_percentiles;
          Alcotest.test_case "worker pool containment and drain" `Quick
            check_worker_pool;
          Alcotest.test_case "seeded jitter retries heal transients" `Quick
            check_jitter_retries;
          Alcotest.test_case "telemetry lines carry trace ids" `Quick
            check_trace_tagging;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "serves requests with trace ids" `Quick
            check_serves_and_answers;
          Alcotest.test_case "malformed frame keeps serving" `Quick
            check_malformed_keeps_serving;
          Alcotest.test_case "oversized frame closes only the offender"
            `Quick check_oversized_closes_connection;
          Alcotest.test_case "unknown benchmark is typed" `Quick
            check_unknown_bench;
          Alcotest.test_case "deadline exceeded is typed" `Quick
            check_deadline_exceeded;
          Alcotest.test_case "queue-full requests get overloaded" `Quick
            check_queue_full_rejection;
          Alcotest.test_case "mid-frame drop is contained" `Quick
            check_connection_drop;
          Alcotest.test_case "idle read timeout is typed" `Quick
            check_read_timeout;
          Alcotest.test_case "/stats, stats op, ping" `Quick
            check_stats_and_ping;
          Alcotest.test_case "graceful drain finishes in-flight work"
            `Quick check_graceful_drain;
          Alcotest.test_case "plain wall requests honour strategy" `Quick
            check_wall_strategy_honoured;
          Alcotest.test_case "plain = budgeted on every engine" `Quick
            check_plain_equals_budgeted;
        ] );
      ( "observability",
        [
          Alcotest.test_case "bench x engine x status breakdown" `Quick
            check_stats_breakdown;
          Alcotest.test_case "phase spans account for wall time" `Quick
            check_phase_accounting;
          Alcotest.test_case "/metrics Prometheus exposition" `Quick
            check_metrics_endpoint;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "mix parsing" `Quick check_loadgen_mix_parse;
          Alcotest.test_case "serving is bit-equal to batch" `Quick
            check_loadgen_bit_equality;
        ] );
    ]
