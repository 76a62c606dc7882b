let log_src = Logs.Src.create "vc.serve" ~doc:"vcilk serve daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)
module E = Vc_core.Vc_error
module J = Vc_exp.Jsonx
module Supervisor = Vc_core.Supervisor
module Telemetry = Vc_core.Telemetry
module Fault = Vc_core.Fault
module Registry = Vc_bench.Registry
module Sweep = Vc_exp.Sweep
module Pool = Vc_exp.Pool

type config = {
  socket_path : string option;
  tcp_port : int option;
  workers : int;
  max_queue : int;
  max_frame : int;
  read_timeout : float;
  max_delay_ms : int;
  slow_ms : float option;
  quick : bool;
  cache_dir : string option;
  workload_dirs : string list;
  ceiling : Supervisor.budgets;
  faults : Fault.plan;
  telemetry : out_channel option;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    workers = 2;
    max_queue = 64;
    max_frame = 65536;
    read_timeout = 30.0;
    max_delay_ms = 5000;
    slow_ms = None;
    quick = false;
    cache_dir = None;
    workload_dirs = [ "examples/dsl"; "test/corpus" ];
    ceiling = Supervisor.no_budgets;
    faults = Fault.none;
    telemetry = None;
  }

(* One per accepted socket.  [c_wlock] serializes response writes (pool
   workers and the connection thread interleave); [c_outstanding] counts
   accepted-but-unanswered requests so the connection only closes after
   every response has been written. *)
type conn = {
  c_fd : Unix.file_descr;
  c_wlock : Mutex.t;
  c_lock : Mutex.t;
  c_done : Condition.t;
  mutable c_outstanding : int;
  mutable c_alive : bool;
}

type t = {
  cfg : config;
  ctx : Sweep.ctx;
  entries : (string, Registry.entry) Hashtbl.t;
  pool : Pool.worker_pool;
  st : Stats.t;
  queue : int Atomic.t;  (* admitted, not yet started *)
  trace_ctr : int Atomic.t;
  drain_flag : bool Atomic.t;
  stopped : bool Atomic.t;
  listeners : (Unix.file_descr * string) list;
  mutable accept_threads : Thread.t list;
  conns_lock : Mutex.t;
  conns_done : Condition.t;
  mutable live_conns : int;
  tel_lock : Mutex.t;
  bound_tcp : int option;
}

(* Accept/read loops poll the drain flag at this period, so drain latency
   and idle-timeout granularity are both ~one slice. *)
let poll_slice = 0.1

let draining t = Atomic.get t.drain_flag
let stats t = t.st
let queue_depth t = Atomic.get t.queue
let stats_line t = Stats.to_line t.st ~queue_depth:(queue_depth t)
let tcp_port t = t.bound_tcp

let endpoints t =
  String.concat ", " (List.map snd t.listeners)

let next_trace t =
  let n = Atomic.fetch_and_add t.trace_ctr 1 in
  (n, Printf.sprintf "t-%06d" n)

(* ------------------------------------------------------------- sending *)

let send conn line =
  Mutex.protect conn.c_wlock (fun () ->
      if conn.c_alive then
        try Protocol.write_line conn.c_fd line
        with
        | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        | Sys_error _
        ->
          (* peer is gone; keep draining its outstanding jobs silently *)
          conn.c_alive <- false)

let job_done conn =
  Mutex.protect conn.c_lock (fun () ->
      conn.c_outstanding <- conn.c_outstanding - 1;
      if conn.c_outstanding = 0 then Condition.broadcast conn.c_done)

let wait_outstanding conn =
  Mutex.lock conn.c_lock;
  while conn.c_outstanding > 0 do
    Condition.wait conn.c_done conn.c_lock
  done;
  Mutex.unlock conn.c_lock

(* ----------------------------------------------------------- execution *)

let overload_error ~max_queue ~depth =
  {
    E.kind =
      E.Budget_exceeded
        {
          resource = E.Queue_depth;
          limit = float_of_int max_queue;
          actual = float_of_int depth;
        };
    phase = E.Execute;
    detail = "job queue full; retry with backoff";
  }

(* Every engine family replies with the fields all of them compute
   bit-equal, then its own: modeled cycles, or the wall clock plus the
   scheduler counters that make the served strategy visible. *)
let reply_fields result =
  let c = Sweep.counts result in
  [
    ("reducers", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) c.reducers));
    ("tasks", J.Int c.tasks);
    ("base_tasks", J.Int c.base_tasks);
    ("max_depth", J.Int c.max_depth);
  ]
  @
  match result with
  | Sweep.Report (r, _) -> [ ("cycles", J.Float r.Vc_core.Report.cycles) ]
  | Sweep.Wall r ->
      [
        ("backend_wall_s", J.Float r.Vc_core.Backend.wall_seconds);
        ("switches", J.Int r.switches);
        ("reexpansions", J.Int r.reexpansions);
      ]

type exec_result =
  | Fields of (string * J.t) list
  | Failed of E.t
  | Crashed of string

(* Execute one admitted request in a pool worker.  Plain requests are
   served from the sweep memo (warm memo + disk cache for the cost
   model); anything carrying per-request budgets or task caps runs fresh
   under the supervisor with the clamped budgets, and the recovery fields
   ride along. *)
let execute t (req : Protocol.request) entry ~salt ~telemetry =
  let req_budgets =
    Supervisor.budgets ?deadline:req.deadline ?wall_deadline:req.wall_deadline
      ?max_live_frames:req.max_live_frames ()
  in
  try
    let point = Protocol.point req entry in
    if req_budgets = Supervisor.no_budgets && req.max_tasks = None then
      Fields (reply_fields (Sweep.run t.ctx point))
    else
      let budgets = Supervisor.clamp_budgets ~ceiling:t.cfg.ceiling req_budgets in
      let faults = Fault.split t.cfg.faults ~salt in
      match
        Supervisor.run ~telemetry (fun telemetry ->
            Sweep.exec t.ctx ~telemetry ~faults ~budgets ?max_tasks:req.max_tasks
              point)
      with
      | Ok o ->
          Fields
            (reply_fields o.value
            @ [ ("fallbacks", J.Int o.fallbacks); ("faults_seen", J.Int o.faults_seen) ])
      | Error e -> Failed e
  with
  | E.Error e -> Failed e
  | exn -> Crashed (Printexc.to_string exn)

let flush_request_telemetry t ~trace sink =
  match t.cfg.telemetry with
  | None -> ()
  | Some oc ->
      let events = Telemetry.ring_events sink in
      Mutex.protect t.tel_lock (fun () ->
          List.iter
            (fun st ->
              output_string oc (Telemetry.jsonl_of_event ~trace st);
              output_char oc '\n')
            events)

(* The body of one admitted request, run on a pool worker domain.  Every
   path writes exactly one response and decrements the queue/outstanding
   counters exactly once — containment means the client always hears
   back, even when the job crashes.

   Phase accounting: [admitted] is stamped where admission control let
   the request in, so [queue_wait_ms] covers the whole pool-queue wait;
   [exec_ms] covers the simulated think-time delay plus execution; and
   [serialize_ms] is measured by rendering the reply once.  The reported
   [wall_ms] is {e defined} as their sum (an ok reply is then re-rendered
   with the phase fields spliced in), so the three phases telescope to
   the wall time exactly — the same discipline as the profiler's
   cycle-exact attribution frames. *)
let run_job t conn (req : Protocol.request) ~salt ~trace ~admitted =
  Atomic.decr t.queue;
  Stats.job_started t.st;
  let telemetry = Telemetry.create () in
  let sink =
    if t.cfg.telemetry = None then Telemetry.null
    else Telemetry.ring ~capacity:4096
  in
  Telemetry.attach telemetry sink;
  let t_start = Unix.gettimeofday () in
  let queue_wait_ms = Float.max 0.0 ((t_start -. admitted) *. 1000.0) in
  let delay = min req.delay_ms t.cfg.max_delay_ms in
  if delay > 0 then Unix.sleepf (float_of_int delay /. 1000.0);
  let outcome =
    match Hashtbl.find_opt t.entries req.bench with
    | None -> `Unknown
    | Some entry -> `Ran (execute t req entry ~salt ~telemetry)
  in
  let exec_ms = (Unix.gettimeofday () -. t_start) *. 1000.0 in
  let t_ser = Unix.gettimeofday () in
  let provisional, ok, status =
    match outcome with
    | `Unknown ->
        ( Protocol.error_line ~id:req.id ~trace Protocol.Unknown_bench
            ~detail:
              (Printf.sprintf "unknown benchmark or workload %S" req.bench),
          false,
          Protocol.status_name Protocol.Unknown_bench )
    | `Ran (Fields fields) ->
        ( Protocol.ok_line ~id:req.id ~trace
            (fields @ [ ("engine", J.String req.engine) ]),
          true,
          Protocol.status_name Protocol.Ok_ )
    | `Ran (Failed e) ->
        ( Protocol.error_line_of ~id:req.id ~trace e,
          false,
          Protocol.status_name (Protocol.status_of_error e) )
    | `Ran (Crashed msg) ->
        Log.err (fun m -> m "request %s (%s) crashed: %s" trace req.bench msg);
        ( Protocol.error_line ~id:req.id ~trace Protocol.Internal ~detail:msg,
          false,
          Protocol.status_name Protocol.Internal )
  in
  let serialize_ms = (Unix.gettimeofday () -. t_ser) *. 1000.0 in
  let wall_ms = queue_wait_ms +. exec_ms +. serialize_ms in
  let line =
    match outcome with
    | `Ran (Fields fields) ->
        Protocol.ok_line ~id:req.id ~trace
          (fields
          @ [
              ("engine", J.String req.engine);
              ("wall_ms", J.Float wall_ms);
              ("queue_wait_ms", J.Float queue_wait_ms);
              ("exec_ms", J.Float exec_ms);
              ("serialize_ms", J.Float serialize_ms);
            ])
    | _ -> provisional
  in
  Stats.job_finished t.st ~bench:req.bench ~engine:req.engine ~status ~ok
    ~wall_ms ~queue_wait_ms ~exec_ms ~serialize_ms;
  (* phase spans on the request's trace: ts is milliseconds since
     admission, so `vcilk trace --chrome` renders each request as three
     abutting B/E slices *)
  let span frame ts0 ts1 =
    Telemetry.emit telemetry ~ts:ts0 (Telemetry.Span_open { frame });
    Telemetry.emit telemetry ~ts:ts1 ~dur:(ts1 -. ts0)
      (Telemetry.Span_close { frame })
  in
  span "queue_wait" 0.0 queue_wait_ms;
  span "exec" queue_wait_ms (queue_wait_ms +. exec_ms);
  span "serialize" (queue_wait_ms +. exec_ms) wall_ms;
  (* even a plain request leaves a trace-tagged completion mark, so the
     operator can grep the stream by trace id regardless of path *)
  Telemetry.emit telemetry ~ts:wall_ms ~dur:wall_ms
    (Telemetry.Mark
       (Printf.sprintf "serve %s %s" req.bench (if ok then "ok" else "err")));
  (match t.cfg.slow_ms with
  | Some threshold when wall_ms >= threshold ->
      Log.warn (fun m ->
          m
            "slow request %s: bench=%s engine=%s status=%s wall_ms=%.3f \
             queue_wait_ms=%.3f exec_ms=%.3f serialize_ms=%.3f"
            trace req.bench req.engine status wall_ms queue_wait_ms exec_ms
            serialize_ms)
  | _ -> ());
  flush_request_telemetry t ~trace sink;
  send conn line;
  job_done conn

(* ------------------------------------------------------ request intake *)

let handle_run t conn (req : Protocol.request) =
  if draining t then begin
    Stats.rejected_draining t.st;
    send conn
      (Protocol.error_line ~id:req.id Protocol.Shutting_down
         ~detail:"daemon is draining; no new work accepted")
  end
  else
    let depth = Atomic.get t.queue in
    if depth >= t.cfg.max_queue then begin
      Stats.rejected_overload t.st;
      Stats.bump t.st ~bench:req.bench ~engine:req.engine
        ~status:(Protocol.status_name Protocol.Overloaded);
      send conn
        (Protocol.error_line_of ~id:req.id
           (overload_error ~max_queue:t.cfg.max_queue ~depth:(depth + 1)))
    end
    else begin
      Atomic.incr t.queue;
      Mutex.protect conn.c_lock (fun () ->
          conn.c_outstanding <- conn.c_outstanding + 1);
      let salt, trace = next_trace t in
      let admitted = Unix.gettimeofday () in
      match
        Pool.submit t.pool (fun () -> run_job t conn req ~salt ~trace ~admitted)
      with
      | `Queued -> Stats.accepted t.st
      | `Draining ->
          Atomic.decr t.queue;
          job_done conn;
          Stats.rejected_draining t.st;
          Stats.bump t.st ~bench:req.bench ~engine:req.engine
            ~status:(Protocol.status_name Protocol.Shutting_down);
          send conn
            (Protocol.error_line ~id:req.id Protocol.Shutting_down
               ~detail:"daemon is draining; no new work accepted")
    end

let handle_frame t conn line =
  let trimmed = String.trim line in
  if trimmed = "" then ()
  else if trimmed = "/stats" then send conn (stats_line t)
  else if trimmed = "/metrics" then
    (* multi-line body; clients read until the "# EOF" line *)
    send conn (Metrics_expo.render t.st ~queue_depth:(queue_depth t))
  else if trimmed = "/ping" then send conn "pong"
  else
    match Protocol.parse_request line with
    | Error e ->
        Stats.rejected_protocol t.st;
        send conn (Protocol.error_line_of ~id:"" e)
    | Ok req -> (
        match req.op with
        | Protocol.Ping ->
            send conn
              (Protocol.ok_line ~id:req.id ~trace:"-"
                 [ ("pong", J.Bool true) ])
        | Protocol.Stats ->
            send conn
              (Protocol.ok_line ~id:req.id ~trace:"-"
                 [ ("stats", Stats.to_json t.st ~queue_depth:(queue_depth t)) ])
        | Protocol.Run -> handle_run t conn req)

(* ---------------------------------------------------- connection loop *)

let close_conn t conn =
  Mutex.protect conn.c_wlock (fun () ->
      conn.c_alive <- false;
      (try Unix.close conn.c_fd with Unix.Unix_error _ -> ()));
  Stats.conn_closed t.st;
  Mutex.protect t.conns_lock (fun () ->
      t.live_conns <- t.live_conns - 1;
      if t.live_conns = 0 then Condition.broadcast t.conns_done)

let conn_loop t conn () =
  let reader = Protocol.reader conn.c_fd in
  let rec loop idle =
    if draining t then begin
      (* drain: answer nothing new, let in-flight responses finish *)
      wait_outstanding conn;
      send conn
        (Protocol.error_line ~id:"" Protocol.Shutting_down
           ~detail:"daemon is draining; connection closing")
    end
    else
      match
        Protocol.read_frame ~timeout:poll_slice ~max_frame:t.cfg.max_frame
          reader
      with
      | Protocol.Frame line ->
          handle_frame t conn line;
          loop 0.0
      | Protocol.Timeout_frame ->
          let idle = idle +. poll_slice in
          if idle >= t.cfg.read_timeout && conn.c_outstanding = 0 then begin
            Stats.rejected_protocol t.st;
            send conn
              (Protocol.error_line ~id:"" Protocol.Timeout_
                 ~detail:
                   (Printf.sprintf "no frame within %.0fs; closing"
                      t.cfg.read_timeout))
          end
          else loop idle
      | Protocol.Eof ->
          if Protocol.buffered reader > 0 then begin
            (* peer dropped mid-frame: a protocol violation, not a crash *)
            Stats.rejected_protocol t.st;
            Log.info (fun m ->
                m "connection dropped mid-frame (%d buffered bytes)"
                  (Protocol.buffered reader))
          end;
          wait_outstanding conn
      | Protocol.Oversized ->
          Stats.rejected_protocol t.st;
          send conn
            (Protocol.error_line ~id:"" Protocol.Bad_request
               ~detail:
                 (Printf.sprintf "frame exceeds max_frame=%d bytes; closing"
                    t.cfg.max_frame));
          wait_outstanding conn
  in
  (try loop 0.0
   with exn ->
     Log.err (fun m -> m "connection loop died: %s" (Printexc.to_string exn)));
  close_conn t conn

let spawn_conn t fd =
  let conn =
    {
      c_fd = fd;
      c_wlock = Mutex.create ();
      c_lock = Mutex.create ();
      c_done = Condition.create ();
      c_outstanding = 0;
      c_alive = true;
    }
  in
  Stats.conn_opened t.st;
  Mutex.protect t.conns_lock (fun () -> t.live_conns <- t.live_conns + 1);
  ignore (Thread.create (conn_loop t conn) ())

(* ------------------------------------------------------- accept loops *)

let accept_loop t lfd () =
  let rec loop () =
    if draining t then ()
    else
      match Unix.select [ lfd ] [] [] poll_slice with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept ~cloexec:true lfd with
          | fd, _ ->
              if draining t then (
                try Unix.close fd with Unix.Unix_error _ -> ())
              else spawn_conn t fd;
              loop ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  in
  (try loop ()
   with exn ->
     Log.err (fun m -> m "accept loop died: %s" (Printexc.to_string exn)))

(* -------------------------------------------------------------- start *)

let setup_error fmt =
  Printf.ksprintf
    (fun detail ->
      Error
        {
          E.kind = E.Fault { site = E.Protocol; hint = E.Abort };
          phase = E.Setup;
          detail;
        })
    fmt

let bind_unix path =
  (* a stale socket file from a crashed daemon must not keep us down *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

let load_entries cfg =
  let entries = Hashtbl.create 64 in
  List.iter
    (fun (e : Registry.entry) -> Hashtbl.replace entries e.name e)
    Registry.all;
  List.iter
    (fun dir ->
      if Sys.file_exists dir && Sys.is_directory dir then
        match Registry.load_dir dir with
        | Ok loaded ->
            List.iter
              (fun (l : Registry.loaded) ->
                if not (Hashtbl.mem entries l.entry.name) then
                  Hashtbl.replace entries l.entry.name l.entry)
              loaded
        | Error e ->
            Log.warn (fun m ->
                m "skipping workload dir %s: %s" dir (E.to_string e)))
    cfg.workload_dirs;
  entries

let start cfg =
  if cfg.socket_path = None && cfg.tcp_port = None then
    setup_error "no listener configured: set socket_path and/or tcp_port"
  else begin
    (* a client that disconnects mid-response must not kill the daemon *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    match
      let unix_l =
        match cfg.socket_path with
        | None -> []
        | Some path -> [ (bind_unix path, Printf.sprintf "unix:%s" path) ]
      in
      let tcp_l, bound_tcp =
        match cfg.tcp_port with
        | None -> ([], None)
        | Some port ->
            let fd, bound = bind_tcp port in
            ([ (fd, Printf.sprintf "tcp:127.0.0.1:%d" bound) ], Some bound)
      in
      (unix_l @ tcp_l, bound_tcp)
    with
    | exception Unix.Unix_error (err, fn, arg) ->
        setup_error "cannot bind listener: %s(%s): %s" fn arg
          (Unix.error_message err)
    | listeners, bound_tcp ->
        let ctx =
          Sweep.create ~quick:cfg.quick ~cache_dir:cfg.cache_dir
            ~budgets:cfg.ceiling ~faults:cfg.faults ()
        in
        let t =
          {
            cfg;
            ctx;
            entries = load_entries cfg;
            pool = Pool.start_pool ~workers:cfg.workers ();
            st = Stats.create ();
            queue = Atomic.make 0;
            trace_ctr = Atomic.make 0;
            drain_flag = Atomic.make false;
            stopped = Atomic.make false;
            listeners;
            accept_threads = [];
            conns_lock = Mutex.create ();
            conns_done = Condition.create ();
            live_conns = 0;
            tel_lock = Mutex.create ();
            bound_tcp;
          }
        in
        t.accept_threads <-
          List.map
            (fun (lfd, _) -> Thread.create (accept_loop t lfd) ())
            t.listeners;
        Log.info (fun m ->
            m "serving %d benchmarks on %s (%d workers, max queue %d%s)"
              (Hashtbl.length t.entries) (endpoints t) cfg.workers
              cfg.max_queue
              (if Fault.armed cfg.faults then ", faults armed" else ""));
        Ok t
  end

(* --------------------------------------------------------------- stop *)

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.drain_flag true;
    (* accept loops poll the flag and exit within a slice *)
    List.iter Thread.join t.accept_threads;
    t.accept_threads <- [];
    List.iter
      (fun (lfd, _) -> try Unix.close lfd with Unix.Unix_error _ -> ())
      t.listeners;
    (match t.cfg.socket_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ());
    (* finish every queued and in-flight job; responses are written from
       the pool workers as they complete *)
    Pool.drain_pool t.pool;
    (* connection threads see the flag, wait their outstanding, close *)
    Mutex.lock t.conns_lock;
    while t.live_conns > 0 do
      Condition.wait t.conns_done t.conns_lock
    done;
    Mutex.unlock t.conns_lock;
    Sweep.persist t.ctx;
    (match t.cfg.telemetry with
    | Some oc -> Mutex.protect t.tel_lock (fun () -> flush oc)
    | None -> ());
    Log.info (fun m -> m "drained: %s" (stats_line t))
  end
