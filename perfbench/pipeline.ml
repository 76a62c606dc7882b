(* One DSL program from source to result, through the public entry point of
   each layer: parse (lang), transform, codegen instantiation, backend run. *)

module B = Vc_core.Backend

type mode = { name : string; backend : B.t; domains : int option }

let compiled = { name = "compiled"; backend = B.compiled; domains = None }
let d2 = { name = "d2"; backend = B.compiled; domains = Some 2 }
let blocked = { name = "blocked"; backend = B.interp; domains = None }

let opts ?telemetry ~block mode =
  {
    B.default_opts with
    strategy = Vc_core.Policy.Hybrid { max_block = block; reexpand = true };
    telemetry;
    domains = mode.domains;
  }

type job = { result : B.result; exec_s : float }

(* The untraced job the end-to-end metrics time. *)
let run ~parse ~mode ~block ~roots =
  let ir = Vc_core.Transform.transform (parse ()) in
  let result, exec_s =
    Pstats.time (fun () -> B.run ~opts:(opts ~block mode) mode.backend (B.Ir ir) ~roots)
  in
  { result; exec_s }

type layers = {
  parse_s : float;
  validate_s : float;  (** timed on its own; {!transform_s} includes it *)
  transform_s : float;
  codegen_s : float;  (** timed on its own; {!exec_s} includes it *)
  untraced_s : float;  (** the backend run without a hub, around the traced one *)
  exec_s : float;  (** the backend run with the probe's hub attached *)
  kernel_s : float;
  label_s : float;
  levels : int;
  blocked_levels : int;
  blocked_rows : int;
  traced : B.result;
}

(* Front-end steps take microseconds, near the clock's resolution: time
   the mean of several calls. *)
let time_mean f =
  let n = 10 in
  let x, dt = Pstats.time (fun () -> List.init n (fun _ -> f ())) in
  (List.hd x, dt /. float_of_int n)

(* The same job with every layer timed.  Validation and codegen
   instantiation happen inside transform and the backend run, so they are
   timed again on their own.  The backend runs three times on the same IR:
   untraced, traced, untraced again, so that the traced run and the mean
   of the other two differ only by the hub, not by drift or run order. *)
let layers ~parse ~mode ~block ~roots =
  let ast, parse_s = time_mean parse in
  let _, validate_s = time_mean (fun () -> Vc_lang.Validate.check ast) in
  let ir, transform_s = time_mean (fun () -> Vc_core.Transform.transform ast) in
  let codegen_s =
    if mode.backend == B.interp then 0.0
    else
      let decls =
        List.map
          (fun (r : Vc_lang.Ast.reducer_decl) -> (r.red_name, r.red_op))
          ast.reducers
      in
      snd
        (time_mean (fun () ->
             Vc_core.Codegen.Soa.instantiate ir ~reducers:(Vc_lang.Reducer.make_set decls)))
  in
  let exec ?telemetry () = B.run ~opts:(opts ?telemetry ~block mode) mode.backend (B.Ir ir) ~roots in
  let _, before_s = Pstats.time exec in
  let p = Probe.create ~label:ast.mth.name in
  let traced, exec_s = Pstats.time (exec ~telemetry:p.hub) in
  let _, after_s = Pstats.time exec in
  {
    parse_s;
    validate_s;
    transform_s;
    codegen_s;
    untraced_s = (before_s +. after_s) /. 2.0;
    exec_s;
    kernel_s = p.kernel_s;
    label_s = p.label_s;
    levels = p.levels;
    blocked_levels = p.blocked_levels;
    blocked_rows = p.blocked_rows;
    traced;
  }

let job_s l = l.parse_s +. l.transform_s +. l.exec_s
let frontend_s l = l.parse_s +. l.transform_s +. l.codegen_s
