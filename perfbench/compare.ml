(* `perf.exe compare A/*.json B/*.json`: the parent's runs (the first
   directory named) against the change's (the second), one row per workload
   and metric.

   Runs pair up in the order given, which should alternate between the two
   commits.  A change is better only when it wins at least 9 of every 10
   of at least 10 pairs (ties count for neither) and its median differs
   from the parent's by more than the parent's interquartile range; worse
   by the mirror rule, or when its median is worse than the parent's by
   more than the metric's bound.  Where the parent's own spread is wider
   than the bound the row is unresolved, unless every change run beats
   every parent run.  Metrics that repeat exactly must stay equal. *)

module J = Vc_exp.Jsonx

type run = {
  workload : string;
  trace : bool;
  ok : bool;  (** every output correct and no operation failed *)
  values : (string * float) list;
}

(* A result file written by [--out]. *)
let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.parse text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
      {
        workload = J.to_str (J.member "workload" j);
        trace = J.to_bool (J.member "trace" j);
        ok = J.to_bool (J.member "correct" j) && J.to_int (J.member "failed" j) = 0;
        values =
          List.map
            (fun (name, m) -> (name, J.to_float (J.member "value" m)))
            (J.obj_fields (J.member "metrics" j));
      }

let rec pairs a b = match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []

(* (wins, pairs, verdict) *)
let verdict (m : Manifest.metric) parent change =
  let better a b = if m.higher_better then b > a else b < a in
  let pairs = pairs parent change in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (a, b) -> better a b) pairs) in
  let losses = List.length (List.filter (fun (a, b) -> better b a) pairs) in
  let q1, med_a, q3 = Pstats.quartiles parent in
  let med_b = Pstats.median change in
  let resolved k = n >= 10 && 10 * k >= 9 * n && Float.abs (med_b -. med_a) > q3 -. q1 in
  let worsening = (if m.higher_better then med_a -. med_b else med_b -. med_a) /. Float.abs med_a in
  let spread = Pstats.spread parent in
  let constant xs = List.for_all (fun x -> x = List.hd xs) xs in
  ( wins,
    n,
    if constant parent && constant change then if med_a = med_b then "equal" else "changed"
    else if resolved wins && better med_a med_b then "better"
    else if resolved losses && better med_b med_a then "worse"
    else
      match m.bound with
      | Some b when worsening > b -> "worse"
      | Some b
        when spread <= b
             || List.for_all (fun c -> List.for_all (fun p -> better p c) parent) change ->
          "same"
      | _ -> "unresolved" )

let main manifest files =
  let dir f = Filename.dirname f in
  let dirs = List.sort_uniq compare (List.map dir files) in
  let parent_dir =
    match files with f :: _ -> dir f | [] -> failwith "compare: no result files"
  in
  if List.length dirs <> 2 then
    failwith "compare: expects result files from exactly two directories";
  let side d = List.map load (List.filter (fun f -> dir f = d) files) in
  let parent = side parent_dir in
  let change = side (List.find (fun d -> d <> parent_dir) dirs) in
  List.iter
    (fun (name, runs) ->
      let bad = List.length (List.filter (fun r -> not r.ok) runs) in
      if bad > 0 then Printf.printf "%s: %d of %d runs failed an oracle or an operation\n" name bad (List.length runs))
    [ ("parent", parent); ("change", change) ];
  let workloads = List.sort_uniq compare (List.map (fun r -> (r.workload, r.trace)) parent) in
  Printf.printf "%-14s %-28s %34s %34s %6s %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun (w, trace) ->
      let runs side = List.filter (fun r -> r.workload = w && r.trace = trace) side in
      List.iter
        (fun (m : Manifest.metric) ->
          let values side = List.filter_map (fun r -> List.assoc_opt m.name r.values) (runs side) in
          match (values parent, values change) with
          | [], _ | _, [] -> ()
          | a, b ->
              let show xs =
                let q1, med, q3 = Pstats.quartiles xs in
                Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
              in
              let wins, n, v = verdict m a b in
              Printf.printf "%-14s %-28s %34s %34s %3d/%-2d %s\n" w m.name (show a) (show b)
                wins n v)
        (Manifest.declared manifest ~trace))
    workloads
