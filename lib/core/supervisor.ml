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

type outcome = {
  report : Report.t;
  fallbacks : int;
  faults_seen : int;
  deadline_events : int;
}

(* Recovery accounting rides the telemetry bus: the engine already emits
   one [Fault] event per surfaced fault and one [Fallback] per quarantine,
   so a counting sink observes supervision without widening [Report.t]
   (which would invalidate every persisted run cache). *)
let counting_sink () =
  let faults = ref 0 and fallbacks = ref 0 and deadlines = ref 0 in
  let sink =
    Telemetry.callback_sink (fun { Telemetry.ev; _ } ->
        match ev with
        | Telemetry.Fault _ -> incr faults
        | Telemetry.Fallback _ -> incr fallbacks
        | Telemetry.Deadline _ -> incr deadlines
        | _ -> ())
  in
  (sink, faults, fallbacks, deadlines)

let supervise ~phase f =
  match f () with
  | v -> Ok v
  | exception Vc_error.Error e -> Error e
  | exception Engine.Task_limit n ->
      Error
        {
          Vc_error.kind =
            Vc_error.Budget_exceeded
              {
                resource = Vc_error.Task_budget;
                limit = float_of_int n;
                actual = float_of_int n;
              };
          phase;
          detail = "engine task limit";
        }
  | exception exn -> Error (Vc_error.of_exn ~phase exn)

let run ?compact ?max_tasks ?cutoff ?warm ?trace ?telemetry
    ?(faults = Fault.none) ?(recover = true) ?(budgets = no_budgets) ~spec
    ~machine ~strategy () =
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let sink, faults_seen, fallbacks, deadlines = counting_sink () in
  Telemetry.attach tel sink;
  supervise ~phase:Vc_error.Execute (fun () ->
      let report =
        Engine.run ?compact ?max_tasks ?cutoff ?warm ?trace ~telemetry:tel
          ~faults ~recover ?deadline:budgets.deadline
          ?wall_deadline:budgets.wall_deadline
          ?max_live_frames:budgets.max_live_frames ~spec ~machine ~strategy ()
      in
      {
        report;
        fallbacks = !fallbacks;
        faults_seen = !faults_seen;
        deadline_events = !deadlines;
      })

let run_domains ?compact ?max_tasks ?cutoff ?chunks ?steal_cost ?seed
    ?telemetry ?(faults = Fault.none) ?(recover = true) ?(budgets = no_budgets)
    ~spec ~machine ~strategy ~domains () =
  (* No counting sink here: [Domain_sched.result] already carries its own
     cross-context fault/fallback totals (per-chunk hubs are private to
     their domains, so a shared sink could not observe them anyway). *)
  supervise ~phase:Vc_error.Execute (fun () ->
      Domain_sched.run ?compact ?max_tasks ?cutoff ?chunks ?steal_cost ?seed
        ?telemetry ~faults ~recover ?deadline:budgets.deadline
        ?wall_deadline:budgets.wall_deadline
        ?max_live_frames:budgets.max_live_frames ~spec ~machine ~strategy
        ~domains ())

type backend_outcome = {
  result : Backend.result;
  b_fallbacks : int;
  b_faults_seen : int;
  b_deadline_events : int;
}

let run_backend ?strategy ?max_tasks ?telemetry ?(faults = Fault.none)
    ?(recover = true) ?(budgets = no_budgets) ?domains backend source ~roots =
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let sink, faults_seen, fallbacks, deadlines = counting_sink () in
  Telemetry.attach tel sink;
  let opts =
    {
      Backend.default_opts with
      telemetry = Some tel;
      faults;
      recover;
      wall_deadline = budgets.wall_deadline;
      max_live_frames = budgets.max_live_frames;
      domains;
    }
  in
  let opts =
    match strategy with Some s -> { opts with Backend.strategy = s } | None -> opts
  in
  let opts =
    match max_tasks with
    | Some n -> { opts with Backend.max_tasks = n }
    | None -> opts
  in
  supervise ~phase:Vc_error.Execute (fun () ->
      let result = Backend.run ~opts backend source ~roots in
      {
        result;
        b_fallbacks = !fallbacks;
        b_faults_seen = !faults_seen;
        b_deadline_events = !deadlines;
      })
