(* Per-layer accounting of one backend run, read from outside through the
   run's telemetry hub: wall-clock stamps, span durations paired by
   frame, and level counts.

   - the [expand]/[blocked] spans wrap the step kernels;
   - the span named after the program's method wraps the whole scheduler
     loop of a single-context run, and only the serial frontier expansion
     of a domains run (its chunks report to private hubs). *)

module T = Vc_core.Telemetry

type t = {
  hub : T.t;
  label : string;
  mutable open_spans : (string * float) list;
  mutable last_closed : string;
  mutable kernel_s : float;
  mutable label_s : float;
  mutable levels : int;
  mutable blocked_levels : int;
  mutable blocked_rows : int;
}

let on_event p (st : T.stamped) =
  match st.ev with
  | T.Span_open { frame } -> p.open_spans <- (frame, st.ts) :: p.open_spans
  | T.Span_close { frame } -> (
      p.last_closed <- frame;
      match p.open_spans with
      | (f, t0) :: rest when f = frame ->
          p.open_spans <- rest;
          let d = st.ts -. t0 in
          if frame = "expand" || frame = "blocked" then p.kernel_s <- p.kernel_s +. d
          else if frame = p.label then p.label_s <- p.label_s +. d
      | _ -> ())
  | T.Level { size; _ } ->
      p.levels <- p.levels + 1;
      if p.last_closed = "blocked" then begin
        p.blocked_levels <- p.blocked_levels + 1;
        p.blocked_rows <- p.blocked_rows + size
      end
  | _ -> ()

(* [label] is the program's method name. *)
let create ~label =
  let p =
    {
      hub = T.create ();
      label;
      open_spans = [];
      last_closed = "";
      kernel_s = 0.0;
      label_s = 0.0;
      levels = 0;
      blocked_levels = 0;
      blocked_rows = 0;
    }
  in
  T.set_clock p.hub Pstats.now;
  T.attach p.hub (T.callback_sink (on_event p));
  p
