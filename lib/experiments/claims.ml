open Vc_bench

type verdict = { claim : string; holds : bool; evidence : string }

let e5 = Vc_mem.Machine.xeon_e5

let check claim holds evidence = { claim; holds; evidence }

(* Best speedups per strategy for one benchmark/machine. *)
let bests ctx entry machine =
  let blk_n, no = Sweep.best ctx entry machine ~reexpand:false in
  let blk_r, re = Sweep.best ctx entry machine ~reexpand:true in
  ( (blk_n, Sweep.speedup ctx entry machine no),
    (blk_r, Sweep.speedup ctx entry machine re) )

let bfs_never_best ctx =
  let offenders =
    List.concat_map
      (fun (entry : Registry.entry) ->
        List.filter_map
          (fun machine ->
            let bfs = Sweep.bfs_only ctx entry machine in
            if bfs.Vc_core.Report.oom then None
            else
              let s_bfs = Sweep.speedup ctx entry machine bfs in
              let _, (_, s_re) = bests ctx entry machine in
              if s_bfs > s_re +. 1e-9 then
                Some
                  (Printf.sprintf "%s/%s (bfs %.2f > reexp %.2f)"
                     entry.Registry.name machine.Vc_mem.Machine.name s_bfs s_re)
              else None)
          Sweep.machines)
      Registry.all
  in
  check "breadth-first-only never beats the hybrid with re-expansion"
    (offenders = [])
    (if offenders = [] then "holds on all benchmarks x machines"
     else String.concat "; " offenders)

let reexpansion_never_loses ctx =
  let margin = 0.95 (* the paper itself has near-ties, e.g. parentheses *) in
  let offenders =
    List.concat_map
      (fun (entry : Registry.entry) ->
        List.filter_map
          (fun machine ->
            let (_, s_no), (_, s_re) = bests ctx entry machine in
            if s_re < s_no *. margin then
              Some
                (Printf.sprintf "%s/%s (reexp %.2f < noreexp %.2f)"
                   entry.Registry.name machine.Vc_mem.Machine.name s_re s_no)
            else None)
          Sweep.machines)
      Registry.all
  in
  check "re-expansion never loses to no-re-expansion (best blocks)"
    (offenders = [])
    (if offenders = [] then "holds on all benchmarks x machines"
     else String.concat "; " offenders)

let reexpansion_wins_on_irregular ctx =
  let gains =
    List.map
      (fun name ->
        let entry = Registry.find name in
        let (_, s_no), (_, s_re) = bests ctx entry e5 in
        (name, s_re /. s_no))
      [ "nqueens"; "graphcol" ]
  in
  check "re-expansion clearly wins on nqueens and graphcol (E5)"
    (List.for_all (fun (_, g) -> g > 1.1) gains)
    (String.concat ", "
       (List.map (fun (n, g) -> Printf.sprintf "%s gain %.2fx" n g) gains))

let reexpansion_smaller_blocks ctx =
  (* the paper says "typically employs less space"; require it on a clear
     majority of benchmark x machine pairs *)
  let pairs =
    List.concat_map
      (fun (entry : Registry.entry) ->
        List.map
          (fun machine ->
            let (blk_no, _), (blk_re, _) = bests ctx entry machine in
            blk_re <= blk_no)
          Sweep.machines)
      Registry.all
  in
  let ok = List.length (List.filter Fun.id pairs) in
  check "re-expansion typically peaks at block sizes no larger than no-re-expansion"
    (4 * ok >= 3 * List.length pairs)
    (Printf.sprintf "%d/%d benchmark x machine pairs" ok (List.length pairs))

let balanced_trees_never_reexpand ctx =
  let events name =
    let entry = Registry.find name in
    let _, r = Sweep.best ctx entry e5 ~reexpand:true in
    Array.length r.Vc_core.Report.reexpansions
  in
  let k = events "knapsack" in
  check "knapsack (perfectly balanced) triggers no re-expansions" (k = 0)
    (Printf.sprintf "knapsack levels with events: %d" k)

let utilization_monotone ctx =
  let entry = Registry.find "nqueens" in
  let utils =
    List.map
      (fun block ->
        (Sweep.hybrid ctx entry e5 ~reexpand:false ~block).Vc_core.Report.utilization)
      (Sweep.blocks_of ctx entry)
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  check "SIMD utilization grows monotonically with block size (nqueens, no re-exp.)"
    (monotone utils)
    (String.concat " " (List.map (Printf.sprintf "%.2f") utils))

let compaction_helps ctx =
  let gain name machine =
    let entry = Registry.find name in
    let block, _ = Sweep.best ctx entry machine ~reexpand:true in
    let width = Sweep.width_on ctx entry machine in
    let sc =
      Sweep.with_compaction ctx entry machine
        ~compact:(Vc_simd.Compact.default_for machine.Vc_mem.Machine.isa ~width)
        ~block
    in
    let nosc =
      Sweep.with_compaction ctx entry machine ~compact:Vc_simd.Compact.Sequential
        ~block
    in
    Sweep.speedup ctx entry machine sc /. Sweep.speedup ctx entry machine nosc
  in
  let fib_gain = gain "fib" e5 and nq_gain = gain "nqueens" e5 in
  check
    "vectorized stream compaction helps, and helps small kernels (fib) more \
     than large ones (nqueens)"
    (fib_gain > 1.0 && nq_gain > 1.0 && fib_gain > nq_gain)
    (Printf.sprintf "fib gain %.2fx, nqueens gain %.2fx" fib_gain nq_gain)

let strawman_loses ctx =
  let offenders =
    List.filter_map
      (fun name ->
        let entry = Registry.find name in
        let straw = Sweep.speedup ctx entry e5 (Sweep.strawman ctx entry e5) in
        let _, (_, s_re) = bests ctx entry e5 in
        if straw >= s_re then Some (Printf.sprintf "%s (strawman %.2f)" name straw)
        else None)
      [ "fib"; "nqueens" ]
  in
  check "the lane-per-thread strawman never beats the blocked transformation"
    (offenders = [])
    (if offenders = [] then "strawman loses on fib and nqueens"
     else String.concat "; " offenders)

let results_exact ctx =
  let offenders =
    List.concat_map
      (fun (entry : Registry.entry) ->
        (* reference = the sequential executor at this context's scale
           (itself validated against closed forms in the test suite) *)
        let expected = (Sweep.seq ctx entry e5).Vc_core.Report.reducers in
        List.concat_map
          (fun machine ->
            List.filter_map
              (fun (label, r) ->
                if (r : Vc_core.Report.t).Vc_core.Report.oom then None
                else if
                  List.for_all
                    (fun (name, v) -> Vc_core.Report.reducer r name = v)
                    expected
                then None
                else
                  Some
                    (Printf.sprintf "%s/%s/%s" entry.Registry.name
                       machine.Vc_mem.Machine.name label))
              [
                ("bfs", Sweep.bfs_only ctx entry machine);
                ("noreexp", snd (Sweep.best ctx entry machine ~reexpand:false));
                ("reexp", snd (Sweep.best ctx entry machine ~reexpand:true));
              ])
          Sweep.machines)
      Registry.all
  in
  check "every strategy computes the exact reference reducer values"
    (offenders = [])
    (if offenders = [] then "all reducer values exact" else String.concat "; " offenders)

(* ------------------------------------------------------------------ *)
(* Wall-clock backend equivalence (vcilk verify --engine blocked|compiled).

   The backends have no cost model, so the claim is purely about results:
   whatever the cost-model engine computes, the backend must compute too. *)

let backend_block = 256

let sorted_reducers rs = List.sort compare rs

let backend_matches_engine ctx ~engine =
  let offenders =
    List.filter_map
      (fun (entry : Registry.entry) ->
        let eng = Sweep.hybrid ctx entry e5 ~reexpand:true ~block:backend_block in
        if eng.Vc_core.Report.oom then None
        else
          let b = Sweep.backend_run ctx entry ~engine ~block:backend_block in
          if
            sorted_reducers b.Vc_core.Backend.reducers
            = sorted_reducers eng.Vc_core.Report.reducers
            && b.tasks = eng.tasks && b.base_tasks = eng.base_tasks
          then None
          else
            Some
              (Printf.sprintf "%s (backend %d/%d tasks vs engine %d/%d)"
                 entry.Registry.name b.tasks b.base_tasks eng.tasks eng.base_tasks))
      Registry.all
  in
  check
    (Printf.sprintf
       "the %s backend reproduces the engine's reducers and task counts" engine)
    (offenders = [])
    (if offenders = [] then "bit-equal on all benchmarks"
     else String.concat "; " offenders)

let compiled_matches_interpreter ctx =
  (* On DSL sources — the only ones where compiled dispatch differs from
     the blocked interpreter — every field of the result must agree,
     scheduler counters included. *)
  let offenders =
    List.filter_map
      (fun (entry : Registry.entry) ->
        match entry.Registry.dsl with
        | None -> None
        | Some _ ->
            let c =
              Sweep.backend_run ctx entry ~engine:"compiled" ~block:backend_block
            in
            let i =
              Sweep.backend_run ctx entry ~engine:"blocked" ~block:backend_block
            in
            if Vc_core.Backend.equal c i then None
            else
              Some
                (Printf.sprintf "%s (compiled %d tasks sw %d re %d vs %d/%d/%d)"
                   entry.Registry.name c.tasks c.switches c.reexpansions i.tasks
                   i.switches i.reexpansions))
      Registry.all
  in
  check
    "the compiled backend matches the blocked interpreter on every result \
     field (DSL benchmarks)"
    (offenders = [])
    (if offenders = [] then "all six fields equal on every DSL benchmark"
     else String.concat "; " offenders)

let backend ctx ~engine =
  backend_matches_engine ctx ~engine
  :: (if engine = "compiled" then [ compiled_matches_interpreter ctx ] else [])

let all ctx =
  [
    results_exact ctx;
    bfs_never_best ctx;
    reexpansion_never_loses ctx;
    reexpansion_wins_on_irregular ctx;
    reexpansion_smaller_blocks ctx;
    balanced_trees_never_reexpand ctx;
    utilization_monotone ctx;
    compaction_helps ctx;
    strawman_loses ctx;
  ]

let pp fmt verdicts =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun v ->
      Format.fprintf fmt "[%s] %s@,       %s@," (if v.holds then "PASS" else "FAIL")
        v.claim v.evidence)
    verdicts;
  let failed = List.length (List.filter (fun v -> not v.holds) verdicts) in
  Format.fprintf fmt "%d/%d claims hold@]@."
    (List.length verdicts - failed)
    (List.length verdicts)

let failures verdicts = List.length (List.filter (fun v -> not v.holds) verdicts)
