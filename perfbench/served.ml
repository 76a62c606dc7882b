(* serve-compute and serve-memo: the real `vcilk serve` daemon in its own
   process (--quick --no-cache --workers 1), driven by one client thread
   over two Unix-socket connections.

   Open-loop rates sit well below saturation (about 30% for serve-compute,
   10% for serve-memo): at 60% the p99 of either workload swings two- to
   fourfold between runs on a 2-core host, and serve-memo's bursts after a
   client stall overflow the daemon's default admission queue.  The queue
   is raised to 4096 so a stall shows as latency, not refusals.

   The client is honest where a sending-time client is not:
   - an open-loop request is timed from the moment it was due, so a stall
     that delays later sends is charged to them, and the generator's
     lateness is reported;
   - a refused, failed or unanswered request counts as +inf latency;
   - every ok reply is checked against an independent oracle
     ({!Oracle}: the sequential interpreter or executor), never against the
     daemon's own batch path.

   These workloads are not declared in BENCHMARK.json: on a shared 2-vCPU
   host their times do not repeat within the benchmark's bounds (see
   README.md).  They run with the same command and report the same
   metric names. *)

module J = Vc_exp.Jsonx

type workload = {
  wname : string;
  mix : (string * string * int) list;  (** bench, engine, weight *)
  budgeted : bool;
      (** send [max_tasks]: a budget at the backend default, which never
          trips but routes the request past the memo so it computes *)
  rps : float;  (** open-loop arrival rate *)
  p99_limit_ms : float;  (** the service objective, reported as [slo_met] *)
  scrape : bool;  (** poll /stats and /metrics every 0.5 s *)
}

let dsl_builtins = [ "fib"; "parentheses"; "binomial"; "nqueens"; "uts" ]

let compute =
  {
    wname = "serve-compute";
    mix =
      ("fib", "compiled", 8)
      :: List.map
           (fun b -> (b, "compiled", 1))
           [
             "parentheses";
             "binomial";
             "nqueens";
             "uts";
             "fib-src";
             "binomial-src";
             "sumrange";
             "multi-root";
           ];
    budgeted = true;
    rps = 700.0;
    p99_limit_ms = 20.0;
    scrape = false;
  }

let memo =
  {
    wname = "serve-memo";
    mix =
      List.map (fun (e : Vc_bench.Registry.entry) -> (e.name, "engine", 1)) Vc_bench.Registry.all
      @ List.concat_map (fun b -> [ (b, "compiled", 1); (b, "blocked", 1) ]) dsl_builtins;
    budgeted = false;
    rps = 4000.0;
    p99_limit_ms = 5.0;
    scrape = true;
  }

let block = 4096
let max_tasks = 20_000_000
let connections = 2
let sat_depth = 4  (* requests in flight per connection at saturation *)
let grace = 10.0

type kind = { label : string; bench : string; engine : string; oracle : Oracle.t }

let kinds w =
  List.map
    (fun (bench, engine, weight) ->
      let oracle = Oracle.quick_scale (Oracle.resolve bench) in
      ({ label = bench ^ "/" ^ engine; bench; engine; oracle }, weight))
    w.mix

let request_line w id k =
  Printf.sprintf
    ({|{"id":"%d","op":"run","bench":"%s","engine":"%s","strategy":"reexp",|}
    ^^ {|"block":%d,"machine":"e5"%s}|})
    id k.bench k.engine block
    (if w.budgeted then Printf.sprintf {|,"max_tasks":%d|} max_tasks else "")

(* ------------------------------------------------------------ daemon *)

type daemon = { pid : int; sock : string }

let run_dir = ".perfbench"
let live_daemons = ref []
let daemon_count = ref 0

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill_daemon d =
  let deadline = Pstats.now () +. 10.0 in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  while (not (reap d.pid)) && Pstats.now () < deadline do
    Unix.sleepf 0.02
  done;
  if not (reap d.pid) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end;
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons;
  try Sys.remove d.sock with Sys_error _ -> ()

let () = at_exit (fun () -> List.iter kill_daemon !live_daemons)

let try_connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Start the daemon on a fresh socket under [run_dir] and wait until it
   accepts a connection. *)
let start_daemon (cfg : Bench_run.cfg) =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  incr daemon_count;
  let sock = Printf.sprintf "%s/serve-%d-%d.sock" run_dir (Unix.getpid ()) !daemon_count in
  let args =
    [ cfg.vcilk; "serve"; "--quick"; "--no-cache"; "--workers"; "1"; "--max-queue"; "4096" ]
    @ [ "--socket"; sock ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  (* the daemons' own log: one file per benchmark process *)
  let log =
    Unix.openfile (Filename.concat run_dir "serve.log")
      (Unix.[ O_WRONLY; O_CREAT; O_APPEND ] @ if !daemon_count = 1 then [ Unix.O_TRUNC ] else [])
      0o644
  in
  let pid = Unix.create_process cfg.vcilk (Array.of_list args) Unix.stdin devnull log in
  Unix.close devnull;
  Unix.close log;
  let d = { pid; sock } in
  live_daemons := d :: !live_daemons;
  let deadline = Pstats.now () +. 30.0 in
  let rec wait () =
    if reap pid then failwith "the daemon exited during start-up"
    else if Pstats.now () > deadline then failwith "the daemon did not come up in 30 s"
    else
      match try_connect sock with
      | Some fd -> Unix.close fd
      | None ->
          Unix.sleepf 0.0005;
          wait ()
  in
  wait ();
  d

(* ------------------------------------------------------------ client *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

type phase = Warm | Open | Sat

type req = { kind : kind; phase : phase; due : float; sent : float; conn : int }

type reply = {
  req : req;
  recv : float;
  ok : bool;
  wall_ms : float;
  queue_ms : float;
  exec_ms : float;
  ser_ms : float;
}

type client = {
  w : workload;
  conns : conn array;
  pending : (int, req) Hashtbl.t;
  mutable next_id : int;
  mutable replies : reply list;
  mutable errors : string list;
  mutable scrape_sent : float option;
  mutable scrapes : float list;
  mutable defer : (int -> string -> float -> unit) option;
      (** while set, reply lines go here unparsed, with their connection
          and arrival time *)
}

let connect w sock =
  {
    w;
    conns =
      Array.init connections (fun _ ->
          match try_connect sock with
          | Some fd -> { fd; buf = Buffer.create 65536 }
          | None -> failwith ("cannot connect to " ^ sock));
    pending = Hashtbl.create 1024;
    next_id = 0;
    replies = [];
    errors = [];
    scrape_sent = None;
    scrapes = [];
    defer = None;
  }

let close_client c =
  Array.iter (fun cn -> try Unix.close cn.fd with Unix.Unix_error _ -> ()) c.conns

let write_line cn line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring cn.fd s off (n - off)) in
  go 0

let send c ~conn ~phase ~due kind =
  let id = c.next_id in
  c.next_id <- id + 1;
  let sent = Pstats.now () in
  Hashtbl.replace c.pending id { kind; phase; due; sent; conn };
  write_line c.conns.(conn) (request_line c.w id kind)

let on_json c line recv =
  match J.parse line with
  | Error e -> c.errors <- ("malformed reply: " ^ e) :: c.errors
  | Ok j -> (
      let num name = match J.member name j with J.Null -> 0.0 | v -> J.to_float v in
      match int_of_string_opt (J.to_str (J.member "id" j)) with
      | None -> c.errors <- ("reply without a request id: " ^ line) :: c.errors
      | Some id -> (
          match Hashtbl.find_opt c.pending id with
          | None -> c.errors <- Printf.sprintf "reply to unknown request %d" id :: c.errors
          | Some req ->
              Hashtbl.remove c.pending id;
              let ok = J.to_str (J.member "status" j) = "ok" in
              if ok then begin
                let reducers =
                  List.map (fun (k, v) -> (k, J.to_int v)) (J.obj_fields (J.member "reducers" j))
                in
                c.errors <-
                  Oracle.check ~what:(c.w.wname ^ " " ^ req.kind.label) req.kind.oracle ~reducers
                    ~tasks:(J.to_int (J.member "tasks" j)) c.errors
              end
              else
                prerr_endline
                  (Printf.sprintf "%s: %s %s" c.w.wname req.kind.label
                     (J.to_str (J.member "detail" j)));
              c.replies <-
                {
                  req;
                  recv;
                  ok;
                  wall_ms = num "wall_ms";
                  queue_ms = num "queue_wait_ms";
                  exec_ms = num "exec_ms";
                  ser_ms = num "serialize_ms";
                }
                :: c.replies))

let on_line c ~conn line recv =
  if String.length line > 0 && line.[0] = '{' then
    match c.defer with Some f -> f conn line recv | None -> on_json c line recv
  else if line = "# EOF" then
    match c.scrape_sent with
    | Some t ->
        c.scrapes <- (recv -. t) :: c.scrapes;
        c.scrape_sent <- None
    | None -> ()

let chunk = Bytes.create 65536

(* Wait for replies until [until] (absolute time) or the first input. *)
let pump c ~until =
  let timeout = Float.max 0.0 (until -. Pstats.now ()) in
  match Unix.select (Array.to_list (Array.map (fun cn -> cn.fd) c.conns)) [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      let recv = Pstats.now () in
      Array.iteri
        (fun conn cn ->
          if List.mem cn.fd readable then begin
            let n = Unix.read cn.fd chunk 0 (Bytes.length chunk) in
            if n = 0 then failwith "daemon closed a connection";
            Buffer.add_subbytes cn.buf chunk 0 n;
            let data = Buffer.contents cn.buf in
            match String.rindex_opt data '\n' with
            | None -> ()
            | Some last ->
                Buffer.clear cn.buf;
                Buffer.add_substring cn.buf data (last + 1) (String.length data - last - 1);
                List.iter
                  (fun l -> on_line c ~conn l recv)
                  (String.split_on_char '\n' (String.sub data 0 last))
          end)
        c.conns

let drain c =
  let deadline = Pstats.now () +. grace in
  while Hashtbl.length c.pending > 0 && Pstats.now () < deadline do
    pump c ~until:deadline
  done

(* The mix as an endless sequence of seeded shuffles of its weighted
   cycle, so every full cycle holds each kind exactly [weight] times. *)
let mix_stream rng kinds =
  let cycle = List.concat_map (fun (k, w) -> List.init w (fun _ -> k)) kinds in
  let queue = ref [] in
  fun () ->
    if !queue = [] then queue := Pstats.shuffle rng cycle;
    match !queue with
    | k :: rest ->
        queue := rest;
        k
    | [] -> assert false

(* Every kind once, one at a time: fills the memo and lazy tables. *)
let warm c kinds =
  List.iter
    (fun (k, _) ->
      send c ~conn:0 ~phase:Warm ~due:(Pstats.now ()) k;
      drain c)
    kinds

(* Open loop: seeded Poisson arrivals at [rate] for [duration] seconds,
   alternating connections. *)
let open_loop c ~rng ~next ~rate ~duration =
  let t0 = Pstats.now () +. 0.005 in
  let rec arrivals t acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else arrivals t ((t0 +. t) :: acc)
  in
  let dues = arrivals 0.0 [] in
  let n = Array.length dues in
  let next_scrape = ref t0 in
  let i = ref 0 in
  while !i < n do
    let now = Pstats.now () in
    while !i < n && dues.(!i) <= now do
      send c ~conn:(!i mod connections) ~phase:Open ~due:dues.(!i) (next ());
      incr i
    done;
    if c.w.scrape && now >= !next_scrape && c.scrape_sent = None then begin
      c.scrape_sent <- Some now;
      write_line c.conns.(0) "/stats";
      write_line c.conns.(0) "/metrics";
      next_scrape := now +. 0.5
    end;
    if !i < n then
      pump c ~until:(if c.w.scrape then Float.min dues.(!i) !next_scrape else dues.(!i))
  done;
  drain c

(* Closed-loop saturation: [sat_depth] requests in flight per connection
   for [duration] seconds.  Replies are parsed and checked only after the
   phase, so that the client spends as little of the two CPUs as it can
   and the daemon sets the rate.  Returns the ok replies received during
   the phase. *)
let saturate c ~next ~duration =
  let t0 = Pstats.now () in
  let t_end = t0 +. duration in
  let lines = ref [] in
  c.defer <-
    Some
      (fun conn line recv ->
        lines := (line, recv) :: !lines;
        if recv < t_end then send c ~conn ~phase:Sat ~due:recv (next ()));
  for conn = 0 to connections - 1 do
    for _ = 1 to sat_depth do
      send c ~conn ~phase:Sat ~due:t0 (next ())
    done
  done;
  while Pstats.now () < t_end do
    pump c ~until:t_end
  done;
  c.defer <- None;
  List.iter (fun (line, recv) -> on_json c line recv) (List.rev !lines);
  let ok = List.filter (fun r -> r.req.phase = Sat && r.ok && r.recv < t_end) c.replies in
  drain c;
  List.length ok

(* ------------------------------------------------------------ metrics *)

let in_phase p c = List.filter (fun r -> r.req.phase = p) c.replies
let ms s = 1000.0 *. s

(* Open-loop latency from the due time, in ms; failed requests and
   requests still unanswered are +inf. *)
let latencies c =
  List.map (fun r -> if r.ok then ms (r.recv -. r.req.due) else infinity) (in_phase Open c)
  @ Hashtbl.fold (fun _ (q : req) acc -> if q.phase = Open then infinity :: acc else acc) c.pending []

let rtt r = ms (r.recv -. r.req.sent)
let ok_open c = List.filter (fun r -> r.ok) (in_phase Open c)

(* The serve layer's phases, from the fields of ok open-loop replies and
   the client's own clock: shares of the summed round trip, and
   percentiles. *)
let phase_detail c =
  let ok = ok_open c in
  let total f = Pstats.sum (List.map f ok) in
  let rtt_total = total rtt in
  let late = List.map (fun r -> ms (r.req.sent -. r.req.due)) (in_phase Open c) in
  let p q f = Pstats.percentile q (List.map f ok) in
  [
    ("queue_wait_share", total (fun r -> r.queue_ms) /. rtt_total);
    ("exec_share", total (fun r -> r.exec_ms) /. rtt_total);
    ("serialize_share", total (fun r -> r.ser_ms) /. rtt_total);
    ("transport_share", total (fun r -> rtt r -. r.wall_ms) /. rtt_total);
    ("queue_wait_tail_share", p 99.0 (fun r -> r.queue_ms) /. p 99.0 rtt);
    ( "client_late_frac",
      float_of_int (List.length (List.filter (fun l -> l > 1.0) late))
      /. float_of_int (max 1 (List.length late)) );
    ("queue_wait_ms.p50", p 50.0 (fun r -> r.queue_ms));
      ("queue_wait_ms.p99", p 99.0 (fun r -> r.queue_ms));
      ("exec_ms.p50", p 50.0 (fun r -> r.exec_ms));
      ("exec_ms.p99", p 99.0 (fun r -> r.exec_ms));
      ("serialize_ms.p50", p 50.0 (fun r -> r.ser_ms));
      ("transport_ms.p50", p 50.0 (fun r -> rtt r -. r.wall_ms));
    ("client_late_ms.p99", Pstats.percentile 99.0 late);
  ]
  @
  if c.w.scrape then
    let scrape = Pstats.median (List.map ms c.scrapes) in
    [ ("scrape_ms.p50", scrape); ("scrape_ratio", scrape /. p 50.0 rtt) ]
  else []

(* serve-compute's per-request path, replayed in this process on the same
   mix: the entry's DSL form (built-ins parse their source here), then
   transform, codegen instantiation and the compiled backend run, traced
   and untraced. *)
let replay kinds =
  Layer_mix.metrics
    (List.map
       (fun (k, weight) ->
         let dsl = Option.get (Oracle.resolve k.bench).dsl in
         let roots = snd (dsl ~quick:true) in
         let parse () = fst (dsl ~quick:true) in
         ( float_of_int weight,
           Layer_mix.median_layers
             (List.init 40 (fun _ -> Pipeline.layers ~parse ~mode:Pipeline.compiled ~block ~roots))
         ))
       kinds)

let run w (cfg : Bench_run.cfg) : Bench_run.t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let kinds = kinds w in
  let rng = Bench_run.rng cfg ~salt:w.wname in
  let next = mix_stream rng kinds in
  let setup () =
    let d = start_daemon cfg in
    let c = connect w d.sock in
    warm c kinds;
    (d, c)
  in
  let finish (d, c) =
    close_client c;
    kill_daemon d
  in
  let (d, c), setup_s = Bench_run.timed_setups ~n:5 ~release:finish setup in
  let sat_s = cfg.seconds /. 3.0 in
  open_loop c ~rng ~next ~rate:w.rps
    ~duration:(if cfg.trace then cfg.seconds else cfg.seconds -. sat_s);
  let sat_ok = if cfg.trace then 0 else saturate c ~next ~duration:sat_s in
  let rss = Pstats.peak_rss_mb d.pid in
  finish (d, c);
  let lat = latencies c in
  let pct q = Pstats.percentile q lat in
  (* an unanswered request has no finite latency; report the whole run
     as its lower bound so the result line stays valid JSON *)
  let finite x = if Float.is_finite x then x else ms cfg.seconds +. ms grace in
  let metrics, detail =
    if not cfg.trace then
      ( [
          ("setup_s", setup_s);
          ("peak_rss_mb", rss);
          ("jobs_per_s", float_of_int sat_ok /. sat_s);
        ],
        [
          ("p50_ms", J.Float (finite (pct 50.0)));
          ("p90_ms", J.Float (finite (pct 90.0)));
          ("p99_ms", J.Float (finite (pct 99.0)));
          ("slo_met", J.Bool (pct 99.0 <= w.p99_limit_ms));
        ] )
    else
      ( (if w.budgeted then replay kinds else []),
        [ ("phases", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (phase_detail c))) ] )
  in
  let unanswered = Hashtbl.length c.pending in
  {
    errors = c.errors;
    attempted = List.length c.replies - List.length (in_phase Warm c) + unanswered;
    failed = List.length (List.filter (fun r -> not r.ok) c.replies) + unanswered;
    metrics;
    detail =
      [
        ("percentile_samples", J.Int (List.length lat));
        ("rps", J.Float w.rps);
        ("p99_limit_ms", J.Float w.p99_limit_ms);
      ]
      @ detail;
  }
