(* 2: telemetry fields (reexp_count, compaction_calls/passes,
   occupancy_hist) added to the report payload. *)
let version = 2

let log_src = Logs.Src.create "vc.runcache" ~doc:"Persistent run cache"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  dir : string;
  lock : Mutex.t;
  table : (string, Vc_core.Report.t) Hashtbl.t;
  mutable dirty : bool;
}

let file t = Filename.concat t.dir "runs.json"

(* ------------------------------------------------------------------ *)
(* Report <-> Jsonx.  Field order and assoc-list order are preserved so a
   round-tripped report is structurally equal to the original (modulo
   [wall_seconds], deliberately dropped). *)

open Vc_core.Report

let json_of_report (r : Vc_core.Report.t) : Jsonx.t =
  Jsonx.Obj
    [
      ("benchmark", String r.benchmark);
      ("machine", String r.machine);
      ("strategy", String r.strategy);
      ("oom", Bool r.oom);
      ("reducers", List (List.map (fun (n, v) -> Jsonx.List [ String n; Int v ]) r.reducers));
      ("tasks", Int r.tasks);
      ("base_tasks", Int r.base_tasks);
      ("max_depth", Int r.max_depth);
      ("issue_cycles", Float r.issue_cycles);
      ("penalty_cycles", Float r.penalty_cycles);
      ("cycles", Float r.cycles);
      ("cpi", Float r.cpi);
      ("utilization", Float r.utilization);
      ("lane_occupancy", Float r.lane_occupancy);
      ("scalar_ops", Int r.scalar_ops);
      ("vector_ops", Int r.vector_ops);
      ("kernel_ops", Int r.kernel_ops);
      ( "cache",
        List
          (List.map
             (fun (l, a, m) -> Jsonx.List [ String l; Int a; Int m ])
             r.cache) );
      ( "miss_rates",
        List (List.map (fun (l, f) -> Jsonx.List [ String l; Float f ]) r.miss_rates) );
      ("space_peak", Int r.space_peak);
      ( "levels",
        List
          (Array.to_list r.levels
          |> List.map (fun (t, b) -> Jsonx.List [ Int t; Int b ])) );
      ( "reexpansions",
        List
          (Array.to_list r.reexpansions
          |> List.map (fun (d, c, f) -> Jsonx.List [ Int d; Int c; Float f ])) );
      ("reexp_count", Int r.reexp_count);
      ("compaction_calls", Int r.compaction_calls);
      ("compaction_passes", Int r.compaction_passes);
      ("occupancy_hist", List (Array.to_list r.occupancy_hist |> List.map (fun n -> Jsonx.Int n)));
    ]

(* Decoding failures travel on a result channel via {!Jsonx.Decode}: a
   corrupt entry must never look like a programming error to the caller,
   and load's salvage loop needs the message to report what it skipped. *)

let report_of_json (j : Jsonx.t) : (Vc_core.Report.t, string) result =
  let open Jsonx in
  let m name = member name j in
  let pair2 conv_a conv_b v =
    match to_list v with
    | [ a; b ] -> (conv_a a, conv_b b)
    | _ -> decode_error "bad pair (expected a 2-element list)"
  in
  let triple conv_a conv_b conv_c v =
    match to_list v with
    | [ a; b; c ] -> (conv_a a, conv_b b, conv_c c)
    | _ -> decode_error "bad triple (expected a 3-element list)"
  in
  try
    Ok
      {
    benchmark = to_str (m "benchmark");
    machine = to_str (m "machine");
    strategy = to_str (m "strategy");
    oom = to_bool (m "oom");
    reducers = List.map (pair2 to_str to_int) (to_list (m "reducers"));
    tasks = to_int (m "tasks");
    base_tasks = to_int (m "base_tasks");
    max_depth = to_int (m "max_depth");
    issue_cycles = to_float (m "issue_cycles");
    penalty_cycles = to_float (m "penalty_cycles");
    cycles = to_float (m "cycles");
    cpi = to_float (m "cpi");
    utilization = to_float (m "utilization");
    lane_occupancy = to_float (m "lane_occupancy");
    scalar_ops = to_int (m "scalar_ops");
    vector_ops = to_int (m "vector_ops");
    kernel_ops = to_int (m "kernel_ops");
    cache = List.map (triple to_str to_int to_int) (to_list (m "cache"));
    miss_rates = List.map (pair2 to_str to_float) (to_list (m "miss_rates"));
    space_peak = to_int (m "space_peak");
    levels = Array.of_list (List.map (pair2 to_int to_int) (to_list (m "levels")));
    reexpansions =
      Array.of_list (List.map (triple to_int to_int to_float) (to_list (m "reexpansions")));
    reexp_count = to_int (m "reexp_count");
    compaction_calls = to_int (m "compaction_calls");
    compaction_passes = to_int (m "compaction_passes");
        occupancy_hist = Array.of_list (List.map to_int (to_list (m "occupancy_hist")));
        wall_seconds = 0.0;
      }
  with Jsonx.Decode msg -> Error msg

(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ?(faults = Vc_core.Fault.none) ~dir () =
  let t = { dir; lock = Mutex.create (); table = Hashtbl.create 256; dirty = false } in
  let path = file t in
  (if Sys.file_exists path then
     match
       Vc_core.Fault.trip faults Vc_core.Fault.Cache ~phase:Vc_core.Vc_error.Load
         ~hint:Vc_core.Vc_error.Discard_entry ~detail:(fun () -> path);
       Jsonx.parse (read_file path)
     with
     | Ok j when Jsonx.(member "version" j = Int version) -> (
         match Jsonx.member "runs" j with
         | Jsonx.Obj runs ->
             let skipped = ref 0 in
             List.iter
               (fun (key, rj) ->
                 match report_of_json rj with
                 | Ok r -> Hashtbl.replace t.table key r
                 | Error msg ->
                     (* skip corrupt entries, keep the rest *)
                     incr skipped;
                     Log.debug (fun m -> m "%s: entry %s: %s" path key msg))
               runs;
             if !skipped > 0 then
               Log.warn (fun m ->
                   m "%s: skipped %d corrupt cache entr%s (kept %d)" path !skipped
                     (if !skipped = 1 then "y" else "ies")
                     (Hashtbl.length t.table))
         | _ ->
             Log.warn (fun m -> m "%s: no \"runs\" object; starting empty" path))
     | Ok _ ->
         (* stale or missing version: discard wholesale (the invalidation
            rule), silently — this is the normal upgrade path *)
         Log.debug (fun m -> m "%s: version mismatch; starting empty" path)
     | Error msg ->
         Log.warn (fun m -> m "%s: unparseable run cache (%s); starting empty" path msg)
     | exception exn ->
         Log.warn (fun m ->
             m "%s: failed to read run cache (%s); starting empty" path
               (Printexc.to_string exn)));
  t

let find t key = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key)

let add t key report =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.table key report;
      t.dirty <- true)

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let max_persist_attempts = 3

(* Crash-safe write, shared by the run cache and the baseline history: a
   pid-unique temp file in the destination's directory (rename is only
   atomic within a filesystem), flushed and fsynced before the rename,
   and removed if anything goes wrong — a reader never observes a
   partial file.  Injected cache-I/O faults with a Retry hint are
   retried up to {!max_persist_attempts} times. *)
let save_atomic ?(faults = Vc_core.Fault.none) ~path payload =
  let dir = Filename.dirname path in
  (if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write_once () =
    Vc_core.Fault.trip faults Vc_core.Fault.Cache ~phase:Vc_core.Vc_error.Persist
      ~hint:Vc_core.Vc_error.Retry ~detail:(fun () -> path);
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    (try
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           output_string oc payload;
           flush oc;
           Unix.fsync (Unix.descr_of_out_channel oc))
     with exn ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise exn);
    Sys.rename tmp path
  in
  let rec attempt n =
    try write_once ()
    with
    | Vc_core.Vc_error.Error
        {
          Vc_core.Vc_error.kind =
            Vc_core.Vc_error.Fault { hint = Vc_core.Vc_error.Retry; _ };
          _;
        } as exn
    ->
      if n >= max_persist_attempts then raise exn
      else begin
        Log.warn (fun m ->
            m "%s: persist fault, retrying (attempt %d/%d)" path (n + 1)
              max_persist_attempts);
        attempt (n + 1)
      end
  in
  attempt 1

let persist ?(faults = Vc_core.Fault.none) t =
  Mutex.protect t.lock @@ fun () ->
  if t.dirty then begin
    let runs =
      Hashtbl.fold (fun k r acc -> (k, json_of_report r) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let doc = Jsonx.Obj [ ("version", Int version); ("runs", Obj runs) ] in
    save_atomic ~faults ~path:(file t) (Jsonx.to_string doc);
    t.dirty <- false
  end
