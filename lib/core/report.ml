type t = {
  benchmark : string;
  machine : string;
  strategy : string;
  oom : bool;
  reducers : (string * int) list;
  tasks : int;
  base_tasks : int;
  max_depth : int;
  issue_cycles : float;
  penalty_cycles : float;
  cycles : float;
  cpi : float;
  utilization : float;
  lane_occupancy : float;
  scalar_ops : int;
  vector_ops : int;
  kernel_ops : int;
  cache : (string * int * int) list;
  miss_rates : (string * float) list;
  space_peak : int;
  levels : (int * int) array;
  reexpansions : (int * int * float) array;
  reexp_count : int;
  compaction_calls : int;
  compaction_passes : int;
  occupancy_hist : int array;
  wall_seconds : float;
}

let oom_placeholder ~benchmark ~machine ~strategy =
  {
    benchmark;
    machine;
    strategy;
    oom = true;
    reducers = [];
    tasks = 0;
    base_tasks = 0;
    max_depth = 0;
    issue_cycles = 0.0;
    penalty_cycles = 0.0;
    cycles = 0.0;
    cpi = 0.0;
    utilization = 0.0;
    lane_occupancy = 0.0;
    scalar_ops = 0;
    vector_ops = 0;
    kernel_ops = 0;
    cache = [];
    miss_rates = [];
    space_peak = 0;
    levels = [||];
    reexpansions = [||];
    reexp_count = 0;
    compaction_calls = 0;
    compaction_passes = 0;
    occupancy_hist = Array.make 10 0;
    wall_seconds = 0.0;
  }

(* Merge the parts of one logical run executed across several contexts
   (the hybrid domain scheduler's expansion phase plus its chunks).  The
   part list order is the canonical merge order — callers pass chunks in
   chunk-index order, so the merged report is independent of which domain
   executed what.  Counters sum; reducer values combine under their
   declared ops; utilization and lane occupancy are weighted means (by
   tasks and vector ops respectively — the per-part totals those rates
   were computed over); miss rates are recomputed from the summed cache
   counters.  [cycles] and [space_peak] are the caller's schedule model
   (e.g. expansion + work-stealing makespan, and a peak over concurrently
   live contexts) — they are the only fields a different worker count may
   legitimately change, along with the derived [cpi]. *)
let merge ~reducers ~strategy ~cycles ~space_peak ~wall_seconds parts =
  match parts with
  | [] -> invalid_arg "Report.merge: no parts"
  | head :: _ ->
      if List.exists (fun p -> p.oom) parts then
        oom_placeholder ~benchmark:head.benchmark ~machine:head.machine ~strategy
      else
        let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
        let sumf f = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
        let merged_reducers =
          List.map
            (fun (name, op) ->
              ( name,
                List.fold_left
                  (fun acc p -> Vc_lang.Reducer.apply op acc (List.assoc name p.reducers))
                  (Vc_lang.Reducer.identity op) parts ))
            reducers
        in
        let tasks = sum (fun p -> p.tasks) in
        let scalar_ops = sum (fun p -> p.scalar_ops) in
        let vector_ops = sum (fun p -> p.vector_ops) in
        let cache =
          List.map
            (fun (label, _, _) ->
              let pick p =
                List.fold_left
                  (fun (a, m) (l, acc, mis) ->
                    if l = label then (a + acc, m + mis) else (a, m))
                  (0, 0) p.cache
              in
              let accesses, misses =
                List.fold_left
                  (fun (a, m) p ->
                    let pa, pm = pick p in
                    (a + pa, m + pm))
                  (0, 0) parts
              in
              (label, accesses, misses))
            head.cache
        in
        let levels =
          let n = List.fold_left (fun acc p -> max acc (Array.length p.levels)) 0 parts in
          Array.init n (fun i ->
              List.fold_left
                (fun (t, b) p ->
                  if i < Array.length p.levels then
                    let pt, pb = p.levels.(i) in
                    (t + pt, b + pb)
                  else (t, b))
                (0, 0) parts)
        in
        let reexpansions =
          let by_depth = Hashtbl.create 8 in
          List.iter
            (fun p ->
              Array.iter
                (fun (depth, count, factor) ->
                  let c0, f0 =
                    Option.value (Hashtbl.find_opt by_depth depth) ~default:(0, 0.0)
                  in
                  Hashtbl.replace by_depth depth
                    (c0 + count, f0 +. (factor *. float_of_int count)))
                p.reexpansions)
            parts;
          Hashtbl.fold (fun depth (count, fsum) acc -> (depth, count, fsum) :: acc)
            by_depth []
          |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
          |> List.map (fun (depth, count, fsum) ->
                 (depth, count, if count = 0 then 0.0 else fsum /. float_of_int count))
          |> Array.of_list
        in
        let occupancy_hist =
          let n =
            List.fold_left (fun acc p -> max acc (Array.length p.occupancy_hist)) 0 parts
          in
          Array.init n (fun i ->
              sum (fun p ->
                  if i < Array.length p.occupancy_hist then p.occupancy_hist.(i) else 0))
        in
        let weighted value weight =
          let total = sumf (fun p -> float_of_int (weight p)) in
          if total <= 0.0 then 1.0
          else sumf (fun p -> value p *. float_of_int (weight p)) /. total
        in
        let ops = scalar_ops + vector_ops in
        {
          benchmark = head.benchmark;
          machine = head.machine;
          strategy;
          oom = false;
          reducers = merged_reducers;
          tasks;
          base_tasks = sum (fun p -> p.base_tasks);
          max_depth = List.fold_left (fun acc p -> max acc p.max_depth) 0 parts;
          issue_cycles = sumf (fun p -> p.issue_cycles);
          penalty_cycles = sumf (fun p -> p.penalty_cycles);
          cycles;
          cpi = (if ops = 0 then 0.0 else cycles /. float_of_int ops);
          utilization = weighted (fun p -> p.utilization) (fun p -> p.tasks);
          lane_occupancy =
            weighted (fun p -> p.lane_occupancy) (fun p -> p.vector_ops);
          scalar_ops;
          vector_ops;
          kernel_ops = sum (fun p -> p.kernel_ops);
          cache;
          miss_rates =
            List.map
              (fun (label, accesses, misses) ->
                ( label,
                  if accesses = 0 then 0.0
                  else float_of_int misses /. float_of_int accesses ))
              cache;
          space_peak;
          levels;
          reexpansions;
          reexp_count = sum (fun p -> p.reexp_count);
          compaction_calls = sum (fun p -> p.compaction_calls);
          compaction_passes = sum (fun p -> p.compaction_passes);
          occupancy_hist;
          wall_seconds;
        }

let equal a b = { a with wall_seconds = 0.0 } = { b with wall_seconds = 0.0 }

let speedup ~baseline t =
  if t.oom || t.cycles <= 0.0 then 0.0 else baseline.cycles /. t.cycles

let reducer t name = List.assoc name t.reducers

let pp_summary fmt t =
  if t.oom then
    Format.fprintf fmt "%s/%s/%s: OOM" t.benchmark t.machine t.strategy
  else
    Format.fprintf fmt
      "@[<v>%s/%s/%s: %d tasks (%d base), depth %d@,\
       cycles %.3e (issue %.3e + mem %.3e), CPI %.2f@,\
       utilization %.1f%%, space peak %d threads@,\
       telemetry: %d reexpansions, %d compactions (%d passes)@,\
       reducers: %s@]"
      t.benchmark t.machine t.strategy t.tasks t.base_tasks t.max_depth t.cycles
      t.issue_cycles t.penalty_cycles t.cpi (100.0 *. t.utilization) t.space_peak
      t.reexp_count t.compaction_calls t.compaction_passes
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) t.reducers))
