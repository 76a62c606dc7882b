(** Sequential depth-first execution of a {!Spec.t} — the baseline every
    speedup in the paper is measured against (Table 1's "Time" column).

    A software stack of frames is walked depth-first; each task pays its
    kernel instruction weights as scalar instructions plus the per-frame
    stack traffic, all routed through the cost model, so the baseline's
    cycles are measured under exactly the same model as the vectorized
    runs. *)

val run :
  ?max_tasks:int ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  unit ->
  Report.t
(** [max_tasks] (default 200M) guards runaway specs: exceeding it raises
    a typed [Task_budget] {!Vc_error.Error} carrying the limit and the
    count reached (exit code 2), as {!Strawman.run} does. *)
