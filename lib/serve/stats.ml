module J = Vc_exp.Jsonx
module Histogram = Vc_core.Metrics.Histogram

(* Seconds of completions behind the windowed throughput and latency
   figures; two spare slots beyond the reported window absorb the current
   (partial) second and wheel wrap-around. *)
let rate_window = 10
let rate_slots = rate_window + 2

type t = {
  started : float;
  connections : int Atomic.t;  (* currently open *)
  conns_total : int Atomic.t;
  accepted : int Atomic.t;
  rejected_overload : int Atomic.t;
  rejected_protocol : int Atomic.t;
  rejected_draining : int Atomic.t;
  completed_ok : int Atomic.t;
  completed_err : int Atomic.t;
  in_flight : int Atomic.t;
  wall_hist : Histogram.t;  (* lifetime store: exact counts, tail quantiles *)
  queue_hist : Histogram.t;
  exec_hist : Histogram.t;
  serialize_hist : Histogram.t;
  (* Second wheel: slot [sec mod rate_slots] holds the wall-time
     histogram of completions stamped in unix second [sec]; a stale tag
     means the slot wrapped and gets a fresh histogram before use.  One
     mutex — touched once per completion. *)
  rate_lock : Mutex.t;
  rate_sec : int array;
  rate_hist : Histogram.t array;
  breakdown_lock : Mutex.t;
  breakdown : (string * string * string, int ref) Hashtbl.t;
}

let slot_hist () = Histogram.create ~shards:1 ()

let create () =
  {
    started = Unix.gettimeofday ();
    connections = Atomic.make 0;
    conns_total = Atomic.make 0;
    accepted = Atomic.make 0;
    rejected_overload = Atomic.make 0;
    rejected_protocol = Atomic.make 0;
    rejected_draining = Atomic.make 0;
    completed_ok = Atomic.make 0;
    completed_err = Atomic.make 0;
    in_flight = Atomic.make 0;
    wall_hist = Histogram.create ();
    queue_hist = Histogram.create ();
    exec_hist = Histogram.create ();
    serialize_hist = Histogram.create ();
    rate_lock = Mutex.create ();
    rate_sec = Array.make rate_slots (-1);
    rate_hist = Array.init rate_slots (fun _ -> slot_hist ());
    breakdown_lock = Mutex.create ();
    breakdown = Hashtbl.create 16;
  }

let conn_opened t =
  Atomic.incr t.connections;
  Atomic.incr t.conns_total

let conn_closed t = Atomic.decr t.connections
let accepted t = Atomic.incr t.accepted
let rejected_overload t = Atomic.incr t.rejected_overload
let rejected_protocol t = Atomic.incr t.rejected_protocol
let rejected_draining t = Atomic.incr t.rejected_draining
let job_started t = Atomic.incr t.in_flight

let bump t ~bench ~engine ~status =
  Mutex.protect t.breakdown_lock (fun () ->
      match Hashtbl.find_opt t.breakdown (bench, engine, status) with
      | Some r -> incr r
      | None -> Hashtbl.add t.breakdown (bench, engine, status) (ref 1))

let breakdown t =
  let rows =
    Mutex.protect t.breakdown_lock (fun () ->
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.breakdown [])
  in
  List.sort compare rows

let tick_rate t wall_ms =
  let sec = int_of_float (Unix.gettimeofday ()) in
  let slot = sec mod rate_slots in
  Mutex.protect t.rate_lock (fun () ->
      if t.rate_sec.(slot) <> sec then begin
        t.rate_sec.(slot) <- sec;
        t.rate_hist.(slot) <- slot_hist ()
      end;
      Histogram.add t.rate_hist.(slot) wall_ms)

(* The wheel slots still tagged with the seconds [sec - back] for [back]
   in [first..last]. *)
let wheel t ~sec ~first ~last =
  Mutex.protect t.rate_lock (fun () ->
      List.filter_map
        (fun back ->
          let s = sec - back in
          let slot = s mod rate_slots in
          if t.rate_sec.(slot) = s then Some t.rate_hist.(slot) else None)
        (List.init (last - first + 1) (( + ) first)))

(* Completions per second over the last [rate_window] full seconds (the
   current, partial second is excluded so a mid-second read does not
   understate the rate).  Early in the daemon's life the divisor is the
   full seconds actually elapsed, so short runs still report a rate. *)
let rate t =
  let now = Unix.gettimeofday () in
  let sec = int_of_float now in
  let span =
    let elapsed = int_of_float (now -. t.started) in
    max 1 (min rate_window elapsed)
  in
  let total =
    List.fold_left
      (fun acc h -> acc + Histogram.count h)
      0
      (wheel t ~sec ~first:1 ~last:span)
  in
  float_of_int total /. float_of_int span

(* Wall-time histogram of the last [rate_window] full seconds plus the
   current one: the [/stats] windowed percentiles read {e current}
   latency, not lifetime latency. *)
let window_hist t =
  let sec = int_of_float (Unix.gettimeofday ()) in
  List.fold_left Histogram.merge (slot_hist ())
    (wheel t ~sec ~first:0 ~last:rate_window)

let job_finished t ~bench ~engine ~status ~ok ~wall_ms ~queue_wait_ms ~exec_ms
    ~serialize_ms =
  Atomic.decr t.in_flight;
  Histogram.add t.wall_hist wall_ms;
  Histogram.add t.queue_hist queue_wait_ms;
  Histogram.add t.exec_hist exec_ms;
  Histogram.add t.serialize_hist serialize_ms;
  tick_rate t wall_ms;
  bump t ~bench ~engine ~status;
  if ok then Atomic.incr t.completed_ok else Atomic.incr t.completed_err

let in_flight t = Atomic.get t.in_flight
let completed t = Atomic.get t.completed_ok + Atomic.get t.completed_err
let wall_hist t = t.wall_hist
let queue_hist t = t.queue_hist
let exec_hist t = t.exec_hist
let serialize_hist t = t.serialize_hist
let uptime_s t = Unix.gettimeofday () -. t.started

type field = I of int | F of float

let snapshot t ~queue_depth =
  let window = window_hist t in
  [
    ("uptime_s", F (uptime_s t));
    ("queue_depth", I queue_depth);
    ("in_flight", I (Atomic.get t.in_flight));
    ("accepted", I (Atomic.get t.accepted));
    ("rejected_overload", I (Atomic.get t.rejected_overload));
    ("rejected_protocol", I (Atomic.get t.rejected_protocol));
    ("rejected_draining", I (Atomic.get t.rejected_draining));
    ("completed_ok", I (Atomic.get t.completed_ok));
    ("completed_err", I (Atomic.get t.completed_err));
    ("rps_10s", F (rate t));
    ("connections", I (Atomic.get t.connections));
    ("connections_total", I (Atomic.get t.conns_total));
    ("p50_wall_ms", F (Histogram.quantile window 0.5));
    ("p99_wall_ms", F (Histogram.quantile window 0.99));
    ("p999_wall_ms", F (Histogram.quantile t.wall_hist 0.999));
    ("max_wall_ms", F (Histogram.max_value window));
  ]

let to_line t ~queue_depth =
  let field (k, v) =
    match v with
    | I i -> Printf.sprintf "%s=%d" k i
    | F f -> Printf.sprintf "%s=%.3f" k f
  in
  "stats " ^ String.concat " " (List.map field (snapshot t ~queue_depth))

let to_json t ~queue_depth =
  J.Obj
    (List.map
       (fun (k, v) -> (k, match v with I i -> J.Int i | F f -> J.Float f))
       (snapshot t ~queue_depth))
