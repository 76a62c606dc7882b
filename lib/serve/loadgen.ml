module E = Vc_core.Vc_error
module J = Vc_exp.Jsonx
module Histogram = Vc_core.Metrics.Histogram
module Registry = Vc_bench.Registry
module Sweep = Vc_exp.Sweep

let log_src = Logs.Src.create "vc.loadgen" ~doc:"serve load generator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mix = (string * int) list

let parse_mix s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty mix"
  else
    try
      Ok
        (List.map
           (fun p ->
             match String.index_opt p ':' with
             | None -> (p, 1)
             | Some i -> (
                 let name = String.sub p 0 i in
                 let w = String.sub p (i + 1) (String.length p - i - 1) in
                 match int_of_string_opt w with
                 | Some w when w > 0 -> (name, w)
                 | _ -> failwith (Printf.sprintf "bad weight in %S" p)))
           parts)
    with Failure m -> Error m

type summary = {
  sent : int;
  ok : int;
  overloaded : int;
  budget_exceeded : int;
  rejected : int;
  lost : int;
  divergences : (string * string) list;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
  latency : Histogram.t;
  stats_line : string option;
}

let passed s = s.divergences = [] && s.lost = 0

let pp_summary ppf s =
  Format.fprintf ppf
    "loadgen sent=%d ok=%d overloaded=%d budget_exceeded=%d rejected=%d \
     lost=%d divergences=%d p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f \
     max_ms=%.3f"
    s.sent s.ok s.overloaded s.budget_exceeded s.rejected s.lost
    (List.length s.divergences)
    s.p50_ms s.p99_ms s.p999_ms s.max_ms

let sorted_reducers rs =
  List.sort (fun (a, _) (b, _) -> compare a b) rs

(* Per-benchmark batch reference: {!Sweep.run} on the point the request
   names, reducers sorted.  Responses must be bit-equal on reducers and
   task counts; modeled cycles feed the [--deadline-frac] budgets. *)
let reference_of ctx entry req =
  let result = Sweep.run ctx (Protocol.point req entry) in
  let c = Sweep.counts result in
  let cycles =
    match result with Sweep.Report (r, _) -> r.Vc_core.Report.cycles | Sweep.Wall _ -> 0.0
  in
  ({ c with reducers = sorted_reducers c.reducers }, cycles)

(* Deterministic per-request uniform value (xorshift64* of (seed, k)):
   the mix choice for request k does not depend on thread scheduling. *)
let uniform ~seed ~k =
  let state =
    ref
      (Int64.logor
         (Int64.of_int
            (((seed * 0x9e3779b9) lxor ((k + 1) * 0x85ebca6b)) land max_int))
         1L)
  in
  let step () =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    x
  in
  ignore (step ());
  Int64.to_float (Int64.shift_right_logical (step ()) 11) /. 9007199254740992.0

type agg = {
  lock : Mutex.t;
  mutable a_sent : int;
  mutable a_ok : int;
  mutable a_overloaded : int;
  mutable a_budget : int;
  mutable a_rejected : int;
  mutable a_lost : int;
  mutable a_divergences : (string * string) list;
  hist : Histogram.t;  (* exact counts: every percentile *)
}

let with_agg agg f = Mutex.protect agg.lock (fun () -> f agg)

let check_reply agg (rep : Protocol.reply) (expected : Sweep.counts) dt_ms =
  Histogram.add agg.hist dt_ms;
  match rep.r_status with
  | Protocol.Ok_ ->
      let got = sorted_reducers rep.r_reducers in
      if
        got = expected.reducers
        && rep.r_tasks = expected.tasks
        && rep.r_base_tasks = expected.base_tasks
      then with_agg agg (fun a -> a.a_ok <- a.a_ok + 1)
      else
        let detail =
          Printf.sprintf
            "reducers/tasks mismatch: got %s tasks=%d base=%d, want %s \
             tasks=%d base=%d"
            (J.to_string
               (J.Obj (List.map (fun (k, v) -> (k, J.Int v)) got)))
            rep.r_tasks rep.r_base_tasks
            (J.to_string
               (J.Obj
                  (List.map (fun (k, v) -> (k, J.Int v)) expected.reducers)))
            expected.tasks expected.base_tasks
        in
        with_agg agg (fun a ->
            a.a_ok <- a.a_ok + 1;
            a.a_divergences <- (rep.r_id, detail) :: a.a_divergences)
  | Protocol.Overloaded ->
      with_agg agg (fun a -> a.a_overloaded <- a.a_overloaded + 1)
  | Protocol.Budget_limit ->
      with_agg agg (fun a -> a.a_budget <- a.a_budget + 1)
  | _ -> with_agg agg (fun a -> a.a_rejected <- a.a_rejected + 1)

let reply_max_frame = 1 lsl 20

(* One connection's worth of the open-loop schedule: requests k = i, i+C,
   i+2C, ... each sent at t0 + k/rps, replies consumed between sends. *)
let conn_thread ~connect ~agg ~choose ~t0 ~rps ~n ~stride ~first ~t_grace () =
  let pending : (string, float * Sweep.counts) Hashtbl.t = Hashtbl.create 64 in
  let next = ref first in
  let abandon () =
    (* connection is unusable: every outstanding and unsent request on
       this socket counts lost — a crash-detection signal, not noise *)
    let unsent = if !next >= n then 0 else ((n - 1 - !next) / stride) + 1 in
    with_agg agg (fun a -> a.a_lost <- a.a_lost + Hashtbl.length pending + unsent);
    next := n;
    Hashtbl.reset pending
  in
  match connect () with
  | exception exn ->
      Log.warn (fun m -> m "connect failed: %s" (Printexc.to_string exn));
      abandon ()
  | fd ->
      let reader = Protocol.reader fd in
      let handle_line line now =
        match Protocol.parse_reply line with
        | Error msg ->
            with_agg agg (fun a ->
                a.a_divergences <- ("<frame>", msg) :: a.a_divergences)
        | Ok rep -> (
            match Hashtbl.find_opt pending rep.r_id with
            | None -> ()  (* unsolicited notice (drain/timeout, id "") *)
            | Some (t_send, expected) ->
                Hashtbl.remove pending rep.r_id;
                check_reply agg rep expected ((now -. t_send) *. 1000.0))
      in
      let rec step () =
        let now = Unix.gettimeofday () in
        if !next >= n && Hashtbl.length pending = 0 then ()
        else if now > t_grace then abandon ()
        else if !next < n && now >= t0 +. (float_of_int !next /. rps) then begin
          let k = !next in
          next := k + stride;
          let req, expected = choose k in
          (match Protocol.write_line fd (Protocol.request_line req) with
          | () ->
              Hashtbl.replace pending req.Protocol.id (now, expected);
              with_agg agg (fun a -> a.a_sent <- a.a_sent + 1)
          | exception (Unix.Unix_error _ | Sys_error _) -> abandon ());
          step ()
        end
        else begin
          let until_send =
            if !next < n then
              Float.max 0.001 (t0 +. (float_of_int !next /. rps) -. now)
            else 0.05
          in
          let timeout = Float.min until_send 0.05 in
          match
            Protocol.read_frame ~timeout ~max_frame:reply_max_frame reader
          with
          | Protocol.Frame line ->
              handle_line line (Unix.gettimeofday ());
              step ()
          | Protocol.Timeout_frame -> step ()
          | Protocol.Eof | Protocol.Oversized -> abandon ()
        end
      in
      step ();
      (try Unix.close fd with Unix.Unix_error _ -> ())

let fetch_stats ~connect =
  match connect () with
  | exception _ -> None
  | fd ->
      let line =
        match Protocol.write_line fd "/stats" with
        | () -> (
            match
              Protocol.read_frame ~timeout:5.0 ~max_frame:reply_max_frame
                (Protocol.reader fd)
            with
            | Protocol.Frame l -> Some l
            | _ -> None)
        | exception (Unix.Unix_error _ | Sys_error _) -> None
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      line

(* [/metrics] replies are multi-line Prometheus text terminated by the
   "# EOF" sentinel; read frames until it (or a timeout) arrives. *)
let fetch_metrics ~connect =
  match connect () with
  | exception _ -> None
  | fd ->
      let body =
        match Protocol.write_line fd "/metrics" with
        | () ->
            let reader = Protocol.reader fd in
            let buf = Buffer.create 4096 in
            let rec loop () =
              match
                Protocol.read_frame ~timeout:5.0 ~max_frame:reply_max_frame
                  reader
              with
              | Protocol.Frame l when String.trim l = "# EOF" ->
                  Buffer.add_string buf l;
                  Some (Buffer.contents buf)
              | Protocol.Frame l ->
                  Buffer.add_string buf l;
                  Buffer.add_char buf '\n';
                  loop ()
              | Protocol.Timeout_frame | Protocol.Eof | Protocol.Oversized ->
                  if Buffer.length buf = 0 then None
                  else Some (Buffer.contents buf)
            in
            loop ()
        | exception (Unix.Unix_error _ | Sys_error _) -> None
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      body

let run ~connect ~rps ~duration ~mix ?(engine = "engine")
    ?(strategy = "reexp") ?(block = 4096) ?deadline_frac ?(delay_ms = 0)
    ?(connections = 4) ?(seed = 1) ?(grace = 30.0)
    ?(workload_dirs = [ "examples/dsl"; "test/corpus" ]) ~quick
    () =
  if rps <= 0.0 then invalid_arg "Loadgen.run: rps must be positive";
  if duration <= 0.0 then invalid_arg "Loadgen.run: duration must be positive";
  let ctx = Sweep.create ~quick ~cache_dir:None () in
  match
    List.map
      (fun (name, w) ->
        let req =
          { (Protocol.run_request ~bench:name) with engine; strategy; block; delay_ms }
        in
        match Registry.resolve ~dirs:workload_dirs name with
        | Error e -> raise (E.Error e)
        | Ok entry ->
            let expected, cycles = reference_of ctx entry req in
            (req, w, expected, cycles))
      mix
  with
  | exception E.Error e -> Error e
  | refs ->
      let total_weight =
        List.fold_left (fun acc (_, w, _, _) -> acc + w) 0 refs
      in
      let pick k =
        let u = uniform ~seed ~k in
        let target = u *. float_of_int total_weight in
        let rec go acc = function
          | [] -> List.nth refs (List.length refs - 1)
          | ((_, w, _, _) as r) :: rest ->
              let acc = acc +. float_of_int w in
              if target < acc then r else go acc rest
        in
        go 0.0 refs
      in
      let n = Stdlib.max 1 (int_of_float (rps *. duration)) in
      let stride = Stdlib.max 1 (Stdlib.min connections n) in
      let agg =
        {
          lock = Mutex.create ();
          a_sent = 0;
          a_ok = 0;
          a_overloaded = 0;
          a_budget = 0;
          a_rejected = 0;
          a_lost = 0;
          a_divergences = [];
          hist = Histogram.create ();
        }
      in
      let t0 = Unix.gettimeofday () in
      let t_grace = t0 +. (float_of_int n /. rps) +. grace in
      let choose i k =
        let req, _, expected, cycles = pick k in
        let deadline =
          match deadline_frac with
          | Some f when engine = "engine" -> Some (f *. cycles)
          | _ -> None
        in
        ({ req with id = Printf.sprintf "c%d-%d" i k; deadline }, expected)
      in
      let threads =
        List.init stride (fun i ->
            Thread.create
              (conn_thread ~connect ~agg ~choose:(choose i) ~t0 ~rps ~n
                 ~stride ~first:i ~t_grace)
              ())
      in
      List.iter Thread.join threads;
      let stats_line = fetch_stats ~connect in
      let count = Histogram.count agg.hist in
      Ok
        {
          sent = agg.a_sent;
          ok = agg.a_ok;
          overloaded = agg.a_overloaded;
          budget_exceeded = agg.a_budget;
          rejected = agg.a_rejected;
          lost = agg.a_lost;
          divergences = List.rev agg.a_divergences;
          p50_ms = Histogram.quantile agg.hist 0.5;
          p99_ms = Histogram.quantile agg.hist 0.99;
          p999_ms = Histogram.quantile agg.hist 0.999;
          mean_ms =
            (if count = 0 then 0.0
             else Histogram.sum agg.hist /. float_of_int count);
          max_ms = Histogram.max_value agg.hist;
          latency = agg.hist;
          stats_line;
        }
