(* `perf.exe record FILE`: the baseline later changes size their gains
   against.  Two sets of [runs_per_set] end-to-end runs of every workload
   on seed 1 (all of set A, then all of set B), then one traced run of
   each.  Every run is its own process (this executable with [--out]), so
   no run inherits another's heap.  FILE gets every value, each set's
   quartiles and spread, and the gap between the two set medians. *)

module J = Vc_exp.Jsonx

let runs_per_set = 5
let seed = 1
let runs_dir = Filename.concat Served.run_dir "runs"

let launch (m : Manifest.t) ~workload ~trace ~tag =
  if not (Sys.file_exists Served.run_dir) then Sys.mkdir Served.run_dir 0o755;
  if not (Sys.file_exists runs_dir) then Sys.mkdir runs_dir 0o755;
  let out = Filename.concat runs_dir (Printf.sprintf "%s-%s.json" workload tag) in
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed ]
    @ [ "--seconds"; string_of_int m.run_seconds; "--trace"; (if trace then "1" else "0") ]
    @ [ "--out"; out ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin devnull devnull in
  Unix.close devnull;
  let r =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Compare.load out
    | _ -> failwith (Printf.sprintf "%s failed; rerun: %s" tag (String.concat " " args))
  in
  if not r.ok then failwith (Printf.sprintf "%s %s: an operation failed" workload tag);
  Printf.eprintf "record: %s %s\n%!" workload tag;
  r.values

let stats xs =
  let q1, med, q3 = Pstats.quartiles xs in
  J.Obj
    [
      ("q1", J.Float q1); ("median", J.Float med); ("q3", J.Float q3);
      ("spread", J.Float (Pstats.spread xs));
    ]

let main (m : Manifest.t) ~workloads file =
  let sets =
    List.map
      (fun set ->
        List.map
          (fun workload ->
            ( workload,
              List.init runs_per_set (fun i ->
                  launch m ~workload ~trace:false ~tag:(Printf.sprintf "set%s%d" set (i + 1))) ))
          workloads)
      [ "A"; "B" ]
  in
  let set_a, set_b = match sets with [ a; b ] -> (a, b) | _ -> assert false in
  let workload w =
    let traced = launch m ~workload:w ~trace:true ~tag:"traced" in
    let values set (metric : Manifest.metric) =
      List.map (List.assoc metric.name) (List.assoc w set)
    in
    let metric (mt : Manifest.metric) =
      let a = values set_a mt and b = values set_b mt in
      let med xs = Pstats.median xs in
      ( mt.name,
        J.Obj
          [
            ("set_a", J.List (List.map (fun x -> J.Float x) a));
            ("set_b", J.List (List.map (fun x -> J.Float x) b));
            ("stats_a", stats a);
            ("stats_b", stats b);
            ("median_gap", J.Float (Float.abs (med b -. med a) /. Float.abs (med a)));
            ("bound", J.Float (Option.value ~default:0.0 mt.bound));
          ] )
    in
    ( w,
      J.Obj
        [
          ("end_to_end", J.Obj (List.map metric m.end_to_end));
          ("traced", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) traced));
        ] )
  in
  let doc =
    J.Obj
      [
        ("seed", J.Int seed);
        ("runs_per_set", J.Int runs_per_set);
        ("run_seconds", J.Int m.run_seconds);
        ("workloads", J.Obj (List.map workload workloads));
      ]
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (J.to_pretty_string doc);
      output_char oc '\n')
