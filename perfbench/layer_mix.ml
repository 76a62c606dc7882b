(* Per-layer metrics over a job mix: each layer's time summed over the mix
   (weighted by how often the mix runs each program), divided by the
   summed time of the step it is part of.  Front-end layers divide by the
   whole job, backend layers by the backend run. *)

open Pipeline

(* The per-program median of each timing over repeated traced runs;
   counts are deterministic and come from the last run.  [untraced_s] is
   set so that [exec_s /. untraced_s] is the median of the per-run ratios:
   each traced run against the untraced runs around it, which cancels the
   host's drift between runs. *)
let median_layers = function
  | [] -> invalid_arg "Layer_mix.median_layers"
  | last :: _ as ls ->
      let m f = Pstats.median (List.map f ls) in
      let exec_s = m (fun l -> l.exec_s) in
      {
        last with
        parse_s = m (fun l -> l.parse_s);
        validate_s = m (fun l -> l.validate_s);
        transform_s = m (fun l -> l.transform_s);
        codegen_s = m (fun l -> l.codegen_s);
        untraced_s = exec_s /. m (fun l -> l.exec_s /. l.untraced_s);
        exec_s;
        kernel_s = m (fun l -> l.kernel_s);
        label_s = m (fun l -> l.label_s);
      }

let metrics (mix : (float * layers) list) =
  let total f = Pstats.sum (List.map (fun (w, l) -> w *. f l) mix) in
  let job = total job_s and exec = total (fun l -> l.exec_s) in
  let weight = total (fun _ -> 1.0) in
  let count f = total (fun l -> float_of_int (f l)) in
  [
    ("lang.parse_share", total (fun l -> l.parse_s) /. job);
    ("lang.validate_share", total (fun l -> l.validate_s) /. job);
    ( "transform.share",
      total (fun l -> Float.max 0.0 (l.transform_s -. l.validate_s)) /. job );
    ("codegen.share", total (fun l -> l.codegen_s) /. job);
    ("frontend_share", total frontend_s /. job);
    ("backend.kernel_share", total (fun l -> l.kernel_s) /. exec);
    ("backend.sched_share", total (fun l -> l.label_s -. l.kernel_s) /. exec);
    ("backend.levels", count (fun l -> l.levels) /. weight);
    ( "backend.blocked_rows_mean",
      count (fun l -> l.blocked_rows) /. Float.max 1.0 (count (fun l -> l.blocked_levels)) );
    ("backend.switches", count (fun l -> l.traced.switches) /. weight);
    ("backend.reexpansions", count (fun l -> l.traced.reexpansions) /. weight);
    ("trace_overhead", (exec /. total (fun l -> l.untraced_s)) -. 1.0);
  ]

(* Share of a traced backend run its scheduler span does not cover:
   stepper set-up and result packaging.  The kernel and scheduler shares
   telescope to [1 - gap]. *)
let telescope_gap l = 1.0 -. (l.label_s /. l.exec_s)
