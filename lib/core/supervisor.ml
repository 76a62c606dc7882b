type budgets = {
  deadline : float option;
  wall_deadline : float option;
  max_live_frames : int option;
}

let no_budgets = { deadline = None; wall_deadline = None; max_live_frames = None }

let budgets ?deadline ?wall_deadline ?max_live_frames () =
  { deadline; wall_deadline; max_live_frames }

(* Tightest-wins merge: a serving process carries operator-set ceilings,
   each request carries its own budgets, and a request must never be able
   to RELAX a ceiling — only tighten it. *)
let clamp_budgets ~ceiling b =
  let min_opt a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> Some (min x y)
  in
  {
    deadline = min_opt ceiling.deadline b.deadline;
    wall_deadline = min_opt ceiling.wall_deadline b.wall_deadline;
    max_live_frames = min_opt ceiling.max_live_frames b.max_live_frames;
  }

(* Cooperative cancellation, one rule for both Fig. 6 schedulers: the
   budgets are checked at every level boundary, so an exceeded one
   surfaces within one level rather than tearing the run down
   mid-operation.  Budget violations are typed (exit code 2) and never
   handled by fault recovery. *)
let exceeded tel resource kind ~limit ~actual =
  Telemetry.emit tel (Telemetry.Deadline { resource; limit; actual });
  Vc_error.budget ~phase:Vc_error.Execute kind ~limit ~actual ()

let check_budgets b ~tel ~wall_start ~live ~cycles x =
  (match b.max_live_frames with
  | Some limit when live > limit ->
      exceeded tel "live-frames" Vc_error.Live_frames ~limit:(float_of_int limit)
        ~actual:(float_of_int live)
  | _ -> ());
  (match (b.deadline, cycles) with
  | Some limit, Some cycles ->
      let actual = cycles x in
      if actual > limit then
        exceeded tel "deadline-cycles" Vc_error.Deadline_cycles ~limit ~actual
  | _ -> ());
  match b.wall_deadline with
  | Some limit ->
      let actual = Unix.gettimeofday () -. wall_start in
      if actual > limit then exceeded tel "deadline-wall" Vc_error.Deadline_wall ~limit ~actual
  | None -> ()

type 'a outcome = { value : 'a; fallbacks : int; faults_seen : int }

(* Recovery accounting rides the telemetry bus: executors emit one [Fault]
   event per surfaced fault and one [Fallback] per quarantine, so a
   counting sink observes supervision without widening [Report.t] (which
   would invalidate every persisted run cache). *)
let run ?telemetry f =
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let sink, counts = Telemetry.counting_sink () in
  Telemetry.attach tel sink;
  match f tel with
  | value ->
      let c = counts () in
      Ok
        {
          value;
          fallbacks = c.Telemetry.fallbacks;
          faults_seen = c.Telemetry.faults;
        }
  | exception Vc_error.Error e -> Error e
  | exception exn -> Error (Vc_error.of_exn ~phase:Vc_error.Execute exn)
