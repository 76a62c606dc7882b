(* Golden snapshot tests for the text artifacts.

   Each table/figure below is fully deterministic in quick mode (modeled
   quantities only — table1 is excluded because it prints host wall-clock
   seconds), so its rendered text is snapshotted under test/golden/ and
   compared byte-for-byte.  This pins the artifact layer: a change to the
   cost model, the sweep grid, or the formatting shows up as a readable
   text diff instead of a silent drift.

   To update the snapshots after an intentional change:

     VC_GOLDEN_PROMOTE=test/golden dune exec test/test_golden.exe

   run from the repository root (the variable points at the source golden
   directory; the test then rewrites the files and passes). *)

let promote_dir = Sys.getenv_opt "VC_GOLDEN_PROMOTE"

let ctx = Vc_exp.Sweep.create ~quick:true ~jobs:1 ~cache_dir:None ()

let render artifact =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  artifact ctx fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* First differing line, for a readable failure message. *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb when x = y -> go (i + 1) la lb
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of golden>")
    | [], y :: _ -> Some (i, "<end of output>", y)
  in
  go 1 la lb

let check name artifact () =
  let got = render artifact in
  match promote_dir with
  | Some dir ->
      write_file (Filename.concat dir (name ^ ".txt")) got;
      Printf.printf "promoted %s/%s.txt\n%!" dir name
  | None -> (
      let path = Filename.concat "golden" (name ^ ".txt") in
      if not (Sys.file_exists path) then
        Alcotest.failf "missing golden file %s (run with VC_GOLDEN_PROMOTE)" path;
      let expected = read_file path in
      if got <> expected then
        match first_diff expected got with
        | Some (line, want, have) ->
            Alcotest.failf
              "%s drifted from its golden snapshot at line %d:\n\
               golden: %s\n\
               output: %s\n\
               (if intentional, re-promote with VC_GOLDEN_PROMOTE=test/golden)"
              name line want have
        | None -> Alcotest.failf "%s differs only in trailing bytes" name)

let artifacts =
  [
    ("table2", Vc_exp.Tables.table2);
    ("table3", Vc_exp.Tables.table3);
    ("figure9", Vc_exp.Figures.figure9);
    ("figure10", Vc_exp.Figures.figure10);
    ("figure15", Vc_exp.Figures.figure15);
    ("figure16", Vc_exp.Figures.figure16);
    ("figure17", Vc_exp.Figures.figure17);
    ("baseline", fun ctx fmt -> Vc_exp.Baseline.pp fmt (Vc_exp.Baseline.collect ctx));
  ]

(* Calibration: the ledger is only exact if its printer is.  Nudge each
   of fib/e5's seven fields by the smallest representable step (one ulp,
   or one count) and require the rendered ledger to move off the
   unperturbed text (which the "baseline" case pins to the golden), so
   rounding the printer fails here even after a re-promotion. *)
let check_ledger_calibration () =
  let rows = Vc_exp.Baseline.collect ctx in
  let golden = Format.asprintf "%a" Vc_exp.Baseline.pp rows in
  let fib = List.assoc "fib/e5" rows in
  let bump_bin h = Array.mapi (fun i n -> if i = 0 then n + 1 else n) h in
  List.iter
    (fun (field, (m : Vc_exp.Baseline.metrics)) ->
      let rows = List.map (fun (k, v) -> (k, if k = "fib/e5" then m else v)) rows in
      if Format.asprintf "%a" Vc_exp.Baseline.pp rows = golden then
        Alcotest.failf "a one-step drift in fib/e5 %s renders as the golden" field)
    Vc_exp.Baseline.
      [
        ("cycles", { fib with cycles = Float.succ fib.cycles });
        ("speedup", { fib with speedup = Float.succ fib.speedup });
        ("domains_speedup", { fib with domains_speedup = Float.succ fib.domains_speedup });
        ("lane_occupancy", { fib with lane_occupancy = Float.succ fib.lane_occupancy });
        ("compaction_passes", { fib with compaction_passes = fib.compaction_passes + 1 });
        ("space_peak", { fib with space_peak = fib.space_peak + 1 });
        ("occupancy_hist", { fib with occupancy_hist = bump_bin fib.occupancy_hist });
      ]

let () =
  Alcotest.run "vc_golden"
    [
      ( "golden",
        List.map
          (fun (name, artifact) ->
            Alcotest.test_case name `Slow (check name artifact))
          artifacts
        @ [
            Alcotest.test_case "baseline catches a one-ulp drift" `Slow
              check_ledger_calibration;
          ] );
    ]
