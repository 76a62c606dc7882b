(* Tests for the experiment harness: sweep caching and CSV export. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fib = Vc_bench.Registry.find "fib"
let e5 = Vc_mem.Machine.xeon_e5

let test_sweep_caching () =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  let a = Vc_exp.Sweep.seq ctx fib e5 in
  let b = Vc_exp.Sweep.seq ctx fib e5 in
  check_bool "memoized (same report)" true (a == b);
  let h1 = Vc_exp.Sweep.hybrid ctx fib e5 ~reexpand:true ~block:64 in
  let h2 = Vc_exp.Sweep.hybrid ctx fib e5 ~reexpand:true ~block:64 in
  check_bool "hybrid memoized" true (h1 == h2);
  let h3 = Vc_exp.Sweep.hybrid ctx fib e5 ~reexpand:false ~block:64 in
  check_bool "strategy distinguishes" true (not (h1 == h3));
  check_bool "speedup positive" true (Vc_exp.Sweep.speedup ctx fib e5 h1 > 0.0)

let test_sweep_quick_mode () =
  let quick = Vc_exp.Sweep.create ~quick:true () in
  let full = Vc_exp.Sweep.create ~quick:false () in
  let qspec = Vc_exp.Sweep.spec_of quick fib in
  let fspec = Vc_exp.Sweep.spec_of full fib in
  check_bool "quick uses smaller roots" true (qspec.Vc_core.Spec.roots <> fspec.Vc_core.Spec.roots);
  check_bool "quick grid is a subset" true
    (List.for_all
       (fun b -> List.mem b (Vc_exp.Sweep.blocks_of full fib))
       (Vc_exp.Sweep.blocks_of quick fib));
  check_int "widths agree" (Vc_exp.Sweep.width_on quick fib e5)
    (Vc_exp.Sweep.width_on full fib e5)

(* The Fig. 16 / Table 2 dedup: requesting the machine's default
   compaction engine explicitly must resolve to the plain hybrid run's key
   (one simulation, physically the same report). *)
let test_key_normalization () =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  let h = Vc_exp.Sweep.hybrid ctx fib e5 ~reexpand:true ~block:64 in
  let before = Vc_exp.Sweep.simulations ctx in
  let default =
    Vc_simd.Compact.default_for e5.Vc_mem.Machine.isa
      ~width:(Vc_exp.Sweep.width_on ctx fib e5)
  in
  let sc = Vc_exp.Sweep.with_compaction ctx fib e5 ~compact:default ~block:64 in
  check_bool "default-engine compaction is a cache hit" true (h == sc);
  check_int "no extra simulation" before (Vc_exp.Sweep.simulations ctx);
  let nosc =
    Vc_exp.Sweep.with_compaction ctx fib e5 ~compact:Vc_simd.Compact.Sequential
      ~block:64
  in
  check_bool "sequential compaction is a distinct point" true (not (h == nosc))

(* The one point check every caller shares (run, bench, the daemon's
   protocol applies the same block rule): non-positive block sizes and
   domain counts are refused before anything executes. *)
let test_validate () =
  let p = Vc_exp.Sweep.point fib in
  let rejected what p =
    check_bool what true (Result.is_error (Vc_exp.Sweep.validate p))
  in
  rejected "block 0" { p with Vc_exp.Sweep.block = 0 };
  rejected "block -1" { p with Vc_exp.Sweep.block = -1 };
  rejected "domains 0" { p with Vc_exp.Sweep.domains = Some 0 };
  check_bool "block message matches the daemon's" true
    (Vc_exp.Sweep.validate { p with Vc_exp.Sweep.block = 0 }
    = Error "block must be >= 1");
  check_bool "default point accepted" true (Vc_exp.Sweep.validate p = Ok ())

let reports_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ka, ra) (kb, rb) -> ka = kb && Vc_core.Report.equal ra rb)
       a b

(* The parallel-sweep determinism contract: a full quick-mode sweep
   produces identical reports (wall-clock excluded) under --jobs 1 and
   --jobs 4, and a warm rerun against the persisted cache simulates
   nothing yet returns equal reports.  One cold sweep also persists to a
   temp cache dir so the cache-hit leg reuses it. *)
let test_parallel_determinism_and_cache () =
  let cache_dir = Filename.temp_file "vc-cache" "" in
  Sys.remove cache_dir;
  let serial = Vc_exp.Sweep.create ~quick:true ~jobs:1 ~cache_dir:(Some cache_dir) () in
  Vc_exp.Sweep.prewarm serial;
  Vc_exp.Sweep.persist serial;
  check_bool "cold sweep simulated something" true (Vc_exp.Sweep.simulations serial > 0);
  check_int "cold sweep saw no cache" 0 (Vc_exp.Sweep.cache_hits serial);
  let parallel = Vc_exp.Sweep.create ~quick:true ~jobs:4 ~cache_dir:None () in
  Vc_exp.Sweep.prewarm parallel;
  check_bool "jobs 1 = jobs 4 (reports modulo wall-clock)" true
    (reports_equal (Vc_exp.Sweep.runs serial) (Vc_exp.Sweep.runs parallel));
  let warm = Vc_exp.Sweep.create ~quick:true ~jobs:4 ~cache_dir:(Some cache_dir) () in
  Vc_exp.Sweep.prewarm warm;
  check_int "warm rerun simulates nothing" 0 (Vc_exp.Sweep.simulations warm);
  check_bool "warm rerun served from disk" true (Vc_exp.Sweep.cache_hits warm > 0);
  check_bool "warm reports = cold reports" true
    (reports_equal (Vc_exp.Sweep.runs serial) (Vc_exp.Sweep.runs warm));
  (* a warm context regenerates byte-identical claims *)
  let pp ctx = Format.asprintf "%a" Vc_exp.Claims.pp (Vc_exp.Claims.all ctx) in
  Alcotest.(check string) "claims identical" (pp serial) (pp warm);
  Sys.remove (Filename.concat cache_dir "runs.json");
  Unix.rmdir cache_dir

(* ------------------------------------------------------------------ *)
(* Run_cache robustness: a damaged runs.json must never take the sweep
   down — it degrades to an empty (or partially salvaged) cache. *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sample_report () =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  Vc_core.Engine.run
    ~spec:(Vc_exp.Sweep.spec_of ctx fib)
    ~machine:e5
    ~strategy:(Vc_core.Policy.Hybrid { max_block = 64; reexpand = true })
    ()

let test_run_cache_corrupt_files () =
  let dir = temp_dir "vc-cache" in
  let path = Filename.concat dir "runs.json" in
  let load_empty what contents =
    write_file path contents;
    let c = Vc_exp.Run_cache.load ~dir () in
    check_int (what ^ " degrades to an empty cache") 0 (Vc_exp.Run_cache.entries c)
  in
  load_empty "empty file" "";
  load_empty "truncated json"
    (Printf.sprintf {|{"version": %d, "runs": {"k": {"benchma|}
       Vc_exp.Run_cache.version);
  load_empty "garbage bytes" "\x00\xff not json at all";
  load_empty "stale version" {|{"version": -1, "runs": {}}|};
  load_empty "runs not an object"
    (Printf.sprintf {|{"version": %d, "runs": 7}|} Vc_exp.Run_cache.version);
  Sys.remove path;
  Unix.rmdir dir

let test_run_cache_roundtrip () =
  let dir = temp_dir "vc-cache" in
  let r = sample_report () in
  let c = Vc_exp.Run_cache.load ~dir () in
  Vc_exp.Run_cache.add c "fib/e5/hybrid" r;
  Vc_exp.Run_cache.persist c;
  let c' = Vc_exp.Run_cache.load ~dir () in
  check_int "one entry after reload" 1 (Vc_exp.Run_cache.entries c');
  (match Vc_exp.Run_cache.find c' "fib/e5/hybrid" with
  | Some r' ->
      check_bool "report round-trips structurally" true (Vc_core.Report.equal r r');
      (* the telemetry fields ride along explicitly *)
      check_int "reexp_count" r.Vc_core.Report.reexp_count r'.Vc_core.Report.reexp_count;
      check_int "compaction_calls" r.Vc_core.Report.compaction_calls
        r'.Vc_core.Report.compaction_calls;
      check_int "compaction_passes" r.Vc_core.Report.compaction_passes
        r'.Vc_core.Report.compaction_passes;
      check_bool "occupancy_hist" true
        (r.Vc_core.Report.occupancy_hist = r'.Vc_core.Report.occupancy_hist)
  | None -> Alcotest.fail "entry missing after reload");
  Sys.remove (Filename.concat dir "runs.json");
  Unix.rmdir dir

let test_run_cache_skips_corrupt_entries () =
  let dir = temp_dir "vc-cache" in
  let r = sample_report () in
  let c = Vc_exp.Run_cache.load ~dir () in
  Vc_exp.Run_cache.add c "good" r;
  Vc_exp.Run_cache.persist c;
  (* splice a structurally-valid-JSON but non-report entry into the file *)
  let path = Filename.concat dir "runs.json" in
  let doc =
    match Vc_exp.Jsonx.parse (read_file path) with
    | Ok j -> j
    | Error m -> Alcotest.fail ("persisted cache unparseable: " ^ m)
  in
  let doc' =
    match doc with
    | Vc_exp.Jsonx.Obj fields ->
        Vc_exp.Jsonx.Obj
          (List.map
             (function
               | "runs", Vc_exp.Jsonx.Obj runs ->
                   ( "runs",
                     Vc_exp.Jsonx.Obj
                       (("zzz-bad", Vc_exp.Jsonx.Obj [ ("benchmark", Int 3) ])
                       :: runs) )
               | f -> f)
             fields)
    | _ -> Alcotest.fail "unexpected cache file shape"
  in
  write_file path (Vc_exp.Jsonx.to_string doc');
  let c' = Vc_exp.Run_cache.load ~dir () in
  check_int "good entry survives alongside the corrupt one" 1
    (Vc_exp.Run_cache.entries c');
  check_bool "and is intact" true
    (match Vc_exp.Run_cache.find c' "good" with
    | Some r' -> Vc_core.Report.equal r r'
    | None -> false);
  Sys.remove path;
  Unix.rmdir dir

let test_jsonx_depth_limit () =
  let open Vc_exp.Jsonx in
  (* a 600-deep array must come back as a typed error, not a stack
     overflow *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match parse (String.make 600 '[' ^ String.make 600 ']') with
  | Error m -> check_bool "mentions the depth budget" true (contains m "deep")
  | Ok _ -> Alcotest.fail "600-deep nesting should exceed the default budget");
  (match parse ~max_depth:3 {|[[[1]]]|} with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("3-deep under max_depth 3 rejected: " ^ m));
  (match parse ~max_depth:3 {|[[[[1]]]]|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "4-deep under max_depth 3 should be rejected");
  match parse ~max_depth:2 {|{"a": [{"b": 1}]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "objects must count against the depth budget too"

let test_report_decode_errors () =
  let open Vc_exp.Jsonx in
  let r = sample_report () in
  let j = Vc_exp.Run_cache.json_of_report r in
  let mutate field v =
    match j with
    | Obj fields -> Obj (List.map (fun (f, x) -> (f, if f = field then v else x)) fields)
    | _ -> Alcotest.fail "report json is not an object"
  in
  let rejects what doc =
    match Vc_exp.Run_cache.report_of_json doc with
    | Error msg -> check_bool (what ^ " has a message") true (String.length msg > 0)
    | Ok _ -> Alcotest.failf "%s should fail to decode" what
  in
  (match Vc_exp.Run_cache.report_of_json j with
  | Ok r' -> check_bool "pristine json decodes" true (Vc_core.Report.equal r r')
  | Error m -> Alcotest.fail ("pristine report json rejected: " ^ m));
  (* the former 'Run_cache: bad pair/triple' failwiths, now Error values *)
  rejects "cache triple with arity 2"
    (mutate "cache" (List [ List [ String "L1d"; Int 1 ] ]));
  rejects "levels pair with arity 3"
    (mutate "levels" (List [ List [ Int 1; Int 2; Int 3 ] ]));
  rejects "reducer pair of wrong type" (mutate "reducers" (List [ Int 5 ]));
  rejects "type mismatch" (mutate "benchmark" (Int 9))

let test_run_cache_crash_safe_persist () =
  let dir = temp_dir "vc-cache" in
  let path = Filename.concat dir "runs.json" in
  let r = sample_report () in
  let c = Vc_exp.Run_cache.load ~dir () in
  Vc_exp.Run_cache.add c "keep" r;
  Vc_exp.Run_cache.persist c;
  let before = read_file path in
  (* now every write attempt faults: persist retries 3 times, then the
     typed error propagates — and the good file must be untouched *)
  let plan = Vc_core.Fault.make ~rate:1.0 ~seed:9 ~sites:[ Vc_core.Fault.Cache ] () in
  Vc_exp.Run_cache.add c "lost" r;
  (match Vc_exp.Run_cache.persist ~faults:plan c with
  | () -> Alcotest.fail "persist under a rate-1.0 fault plan should give up"
  | exception Vc_core.Vc_error.Error e ->
      check_bool "cache-io fault" true
        (Vc_core.Vc_error.site_of e = Some Vc_core.Vc_error.Cache_io);
      check_int "three attempts" 3 (Vc_core.Fault.total_fired plan));
  check_bool "failed persist leaves the file byte-identical" true
    (read_file path = before);
  check_bool "no temp files leak" true
    (Array.for_all
       (fun f -> not (String.length f >= 4 && String.sub f 0 4 = "runs" && f <> "runs.json"))
       (Sys.readdir dir));
  let c' = Vc_exp.Run_cache.load ~dir () in
  check_int "previous state still loads" 1 (Vc_exp.Run_cache.entries c');
  Sys.remove path;
  Unix.rmdir dir

let test_pool_run_collect () =
  let ran = Array.make 4 false in
  let tasks =
    [
      (fun () -> ran.(0) <- true);
      (fun () -> failwith "boom");
      (fun () -> ran.(2) <- true);
      (fun () -> ran.(3) <- true);
    ]
  in
  (match Vc_exp.Pool.run_collect ~jobs:1 tasks with
  | [ f ] ->
      check_int "failed index" 1 f.Vc_exp.Pool.index;
      check_bool "classified" true
        (not (Vc_core.Vc_error.is_budget f.Vc_exp.Pool.error))
  | fs -> Alcotest.failf "expected exactly one contained failure, got %d" (List.length fs));
  check_bool "other tasks still ran" true (ran.(0) && ran.(2) && ran.(3));
  (* budget violations are never contained: they abort and re-raise *)
  let budget_task () =
    Vc_core.Vc_error.budget ~phase:Vc_core.Vc_error.Execute
      Vc_core.Vc_error.Deadline_cycles ~limit:1.0 ~actual:2.0 ()
  in
  match Vc_exp.Pool.run_collect ~jobs:1 [ (fun () -> ()); budget_task ] with
  | _ -> Alcotest.fail "budget violation should abort run_collect"
  | exception Vc_core.Vc_error.Error e ->
      check_bool "budget error" true (Vc_core.Vc_error.is_budget e)

let test_pool_contains_exhaustion () =
  (* per-run exhaustion (Memory, Task_budget) is contained by run_collect
     as a recorded per-run failure — run once, never aborting the queue —
     unlike the deadline budgets checked above *)
  List.iter
    (fun resource ->
      let attempts = Atomic.make 0 in
      let exhaust () =
        Atomic.incr attempts;
        Vc_core.Vc_error.budget ~phase:Vc_core.Vc_error.Execute resource
          ~limit:512.0 ~actual:513.0 ()
      in
      let ran = ref false in
      match
        Vc_exp.Pool.run_collect ~jobs:1 [ exhaust; (fun () -> ran := true) ]
      with
      | [ f ] ->
          check_int "failed index" 0 f.Vc_exp.Pool.index;
          check_bool "typed budget" true
            (Vc_core.Vc_error.is_budget f.Vc_exp.Pool.error);
          check_bool "rest of the queue still ran" true !ran;
          check_int "exhaustion is never retried" 1 (Atomic.get attempts)
      | fs ->
          Alcotest.failf "expected one contained failure, got %d"
            (List.length fs))
    [ Vc_core.Vc_error.Memory; Vc_core.Vc_error.Task_budget ]

let test_jsonx_typed_decode () =
  let open Vc_exp.Jsonx in
  (* accessors raise the typed [Decode] exception, not [Failure] *)
  let rejects what f =
    match f () with
    | exception Decode _ -> ()
    | exception e ->
        Alcotest.failf "%s escaped as %s instead of Jsonx.Decode" what
          (Printexc.to_string e)
    | _ -> Alcotest.failf "%s should not decode" what
  in
  rejects "int of string" (fun () -> to_int (String "x"));
  rejects "float of list" (fun () -> to_float (List []));
  rejects "bool of null" (fun () -> to_bool Null);
  rejects "str of int" (fun () -> to_str (Int 1));
  rejects "list of obj" (fun () -> to_list (Obj []));
  rejects "fields of int" (fun () -> obj_fields (Int 1));
  (* member is total by design: Null when absent or not an object *)
  check_bool "member of non-obj is Null" true (member "k" (Int 1) = Null)

let test_jsonx_bad_escapes () =
  let open Vc_exp.Jsonx in
  let rejects what s =
    match parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be a parse error: %s" what s
  in
  (* these must come back as [Error _], not escape as an exception *)
  rejects "non-hex \\u escape" {|"\u12zz"|};
  rejects "underscore in \\u escape" {|"\u1_23"|};
  rejects "truncated \\u escape" {|"\u12|};
  match parse {|"\u0041"|} with
  | Ok (String "A") -> ()
  | Ok _ -> Alcotest.fail "\\u0041 should decode to \"A\""
  | Error m -> Alcotest.fail ("\\u0041 rejected: " ^ m)

let test_jsonx_roundtrip () =
  let open Vc_exp.Jsonx in
  let doc =
    Obj
      [
        ("s", String "a\"b\\c\nd");
        ("i", Int (-42));
        ("f", Float 0.1);
        ("tiny", Float 1.2345678901234567e-300);
        ("t", Bool true);
        ("n", Null);
        ("l", List [ Int 1; Float 2.5; String "x"; List []; Obj [] ]);
      ]
  in
  match parse (to_string doc) with
  | Ok doc' -> check_bool "round-trips exactly" true (doc = doc')
  | Error m -> Alcotest.fail ("parse failed: " ^ m)

let test_jsonx_pretty_roundtrip () =
  let open Vc_exp.Jsonx in
  let doc =
    Obj
      [
        ("s", String "a\"b\\c\nd");
        ("i", Int (-42));
        ("f", Float 0.1);
        ("t", Bool false);
        ("n", Null);
        ("empty_l", List []);
        ("empty_o", Obj []);
        ("l", List [ Int 1; Float 2.5; Obj [ ("k", List [ Null ]) ] ]);
      ]
  in
  let pretty = to_pretty_string doc in
  check_bool "multi-line" true (String.contains pretty '\n');
  check_bool "trailing newline" true (pretty.[String.length pretty - 1] = '\n');
  match parse pretty with
  | Ok doc' -> check_bool "pretty form round-trips exactly" true (doc = doc')
  | Error m -> Alcotest.fail ("pretty parse failed: " ^ m)

let test_save_atomic () =
  let dir = temp_dir "vc-atomic" in
  let path = Filename.concat dir "out.json" in
  Vc_exp.Run_cache.save_atomic ~path "first";
  Alcotest.(check string) "payload lands" "first" (read_file path);
  (* a rate-1.0 cache fault plan exhausts the 3 retries; the previous
     payload must survive and no temp file may leak *)
  let plan = Vc_core.Fault.make ~rate:1.0 ~seed:5 ~sites:[ Vc_core.Fault.Cache ] () in
  (match Vc_exp.Run_cache.save_atomic ~faults:plan ~path "second" with
  | () -> Alcotest.fail "save_atomic under a rate-1.0 fault plan should give up"
  | exception Vc_core.Vc_error.Error e ->
      check_bool "cache-io fault" true
        (Vc_core.Vc_error.site_of e = Some Vc_core.Vc_error.Cache_io);
      check_int "three attempts" 3 (Vc_core.Fault.total_fired plan));
  Alcotest.(check string) "old payload intact" "first" (read_file path);
  check_int "no temp files leak" 1 (Array.length (Sys.readdir dir));
  (* missing parent directory is created (one level) *)
  let nested = Filename.concat (Filename.concat dir "sub") "out.json" in
  Vc_exp.Run_cache.save_atomic ~path:nested "third";
  Alcotest.(check string) "nested payload lands" "third" (read_file nested);
  Sys.remove nested;
  Unix.rmdir (Filename.concat dir "sub");
  Sys.remove path;
  Unix.rmdir dir

let lines s = String.split_on_char '\n' (String.trim s)

let test_csv_table1 () =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  let csv = Vc_exp.Csv.table1 ctx in
  match lines csv with
  | header :: rows ->
      check_bool "header" true
        (String.length header > 0 && String.sub header 0 9 = "benchmark");
      check_int "8 benchmark rows" 8 (List.length rows);
      List.iter
        (fun row ->
          check_int "7 columns" 7 (List.length (String.split_on_char ',' row)))
        rows
  | [] -> Alcotest.fail "empty csv"

let test_csv_levels () =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  let csv = Vc_exp.Csv.levels ctx ~benchmark:"fib" in
  match lines csv with
  | _header :: rows ->
      (* fib(20): 20 levels, root row is "0,1,0" *)
      check_int "level rows" 20 (List.length rows);
      Alcotest.(check string) "root row" "0,1,0" (List.hd rows)
  | [] -> Alcotest.fail "empty csv"

let test_csv_export_writes_files () =
  let ctx = Vc_exp.Sweep.create ~quick:true () in
  let dir = Filename.temp_file "vcilk" "" in
  Sys.remove dir;
  (* export only the cheap artifacts by calling the text generators *)
  ignore (Vc_exp.Csv.table1 ctx : string);
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir "table1.csv" in
  let oc = open_out path in
  output_string oc (Vc_exp.Csv.table1 ctx);
  close_out oc;
  check_bool "file written" true (Sys.file_exists path);
  Sys.remove path;
  Unix.rmdir dir

let test_ascii_plot () =
  let out =
    Format.asprintf "%t"
      (Vc_exp.Ascii_plot.plot ~width:20 ~height:5
         [
           {
             Vc_exp.Ascii_plot.label = "ramp";
             marker = '*';
             points = [ (0.0, 0.0); (1.0, 0.5); (2.0, 1.0) ];
           };
         ])
  in
  let lines = String.split_on_char '\n' out in
  (* 5 grid rows + axis + x labels + legend *)
  check_bool "has grid rows" true (List.length lines >= 8);
  check_bool "marker present" true (String.contains out '*');
  check_bool "legend present" true
    (List.exists (fun l -> String.length l > 0 && String.contains l '=') lines)

let test_ascii_plot_empty () =
  let out = Format.asprintf "%t" (Vc_exp.Ascii_plot.plot []) in
  check_bool "notice" true (String.length out > 0)

let () =
  Alcotest.run "vc_exp"
    [
      ( "sweep",
        [
          Alcotest.test_case "caching" `Quick test_sweep_caching;
          Alcotest.test_case "quick mode" `Quick test_sweep_quick_mode;
          Alcotest.test_case "key normalization" `Quick test_key_normalization;
          Alcotest.test_case "validate rejects bad block/domains" `Quick
            test_validate;
          Alcotest.test_case "parallel determinism + run cache" `Slow
            test_parallel_determinism_and_cache;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "pretty roundtrip" `Quick test_jsonx_pretty_roundtrip;
          Alcotest.test_case "bad escapes are errors" `Quick test_jsonx_bad_escapes;
          Alcotest.test_case "accessors raise typed Decode" `Quick
            test_jsonx_typed_decode;
          Alcotest.test_case "nesting depth is bounded" `Quick
            test_jsonx_depth_limit;
        ] );
      ( "run-cache",
        [
          Alcotest.test_case "corrupt files degrade to empty" `Quick
            test_run_cache_corrupt_files;
          Alcotest.test_case "report round-trip (telemetry fields)" `Quick
            test_run_cache_roundtrip;
          Alcotest.test_case "corrupt entries are skipped" `Quick
            test_run_cache_skips_corrupt_entries;
          Alcotest.test_case "malformed payloads decode to Error" `Quick
            test_report_decode_errors;
          Alcotest.test_case "failed persist never corrupts the file" `Quick
            test_run_cache_crash_safe_persist;
          Alcotest.test_case "save_atomic crash safety" `Quick test_save_atomic;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run_collect contains failures" `Quick
            test_pool_run_collect;
          Alcotest.test_case "exhaustion budgets are contained, not fatal"
            `Quick test_pool_contains_exhaustion;
        ] );
      ( "csv",
        [
          Alcotest.test_case "table1" `Quick test_csv_table1;
          Alcotest.test_case "levels" `Quick test_csv_levels;
          Alcotest.test_case "export writes files" `Quick test_csv_export_writes_files;
        ] );
      ( "ascii-plot",
        [
          Alcotest.test_case "renders" `Quick test_ascii_plot;
          Alcotest.test_case "empty" `Quick test_ascii_plot_empty;
        ] );
    ]
