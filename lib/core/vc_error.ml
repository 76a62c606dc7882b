type site =
  | Compaction
  | Conversion
  | Block_alloc
  | Cache_io
  | Scheduler
  | Decode
  | Telemetry
  | Protocol

type phase = Setup | Expand | Execute | Recover | Persist | Load

type hint = Retry | Fallback_scalar | Discard_entry | Abort

type resource =
  | Deadline_cycles
  | Deadline_wall
  | Live_frames
  | Task_budget
  | Memory
  | Queue_depth

type kind =
  | Fault of { site : site; hint : hint }
  | Budget_exceeded of { resource : resource; limit : float; actual : float }

type t = { kind : kind; phase : phase; detail : string }

exception Error of t

let site_name = function
  | Compaction -> "compaction"
  | Conversion -> "conversion"
  | Block_alloc -> "block-alloc"
  | Cache_io -> "cache-io"
  | Scheduler -> "scheduler"
  | Decode -> "decode"
  | Telemetry -> "telemetry"
  | Protocol -> "protocol"

let phase_name = function
  | Setup -> "setup"
  | Expand -> "expand"
  | Execute -> "execute"
  | Recover -> "recover"
  | Persist -> "persist"
  | Load -> "load"

let hint_name = function
  | Retry -> "retry"
  | Fallback_scalar -> "fallback-scalar"
  | Discard_entry -> "discard-entry"
  | Abort -> "abort"

let resource_name = function
  | Deadline_cycles -> "deadline-cycles"
  | Deadline_wall -> "deadline-wall"
  | Live_frames -> "live-frames"
  | Task_budget -> "task-budget"
  | Memory -> "memory"
  | Queue_depth -> "queue-depth"

let site_of t = match t.kind with Fault { site; _ } -> Some site | _ -> None

let hint_of t = match t.kind with Fault { hint; _ } -> Some hint | _ -> None

let is_budget t = match t.kind with Budget_exceeded _ -> true | Fault _ -> false

(* The process-level exit-code taxonomy shared by every vcilk subcommand:
   0 ok, 1 detected failure, 2 budget/deadline exceeded.  Crashes are
   distinct: cmdliner maps uncaught exceptions to 125 and usage errors
   to 124. *)
let exit_ok = 0
let exit_failure = 1
let exit_budget = 2

let exit_code t = if is_budget t then exit_budget else exit_failure

let to_string t =
  match t.kind with
  | Fault { site; hint } ->
      Printf.sprintf "[%s/%s] %s (recovery: %s)" (site_name site) (phase_name t.phase)
        t.detail (hint_name hint)
  | Budget_exceeded { resource; limit; actual } ->
      Printf.sprintf "[budget/%s] %s exceeded: %g > limit %g%s" (phase_name t.phase)
        (resource_name resource) actual limit
        (if t.detail = "" then "" else " (" ^ t.detail ^ ")")

let pp fmt t = Format.pp_print_string fmt (to_string t)

let fail ~phase site hint fmt =
  Printf.ksprintf
    (fun detail -> raise (Error { kind = Fault { site; hint }; phase; detail }))
    fmt

let budget ?(detail = "") ~phase resource ~limit ~actual () =
  raise
    (Error { kind = Budget_exceeded { resource; limit; actual }; phase; detail })

(* Classify an arbitrary exception escaping a supervised region.  Typed
   errors pass through; everything else becomes an unrecoverable scheduler
   fault carrying the original message. *)
let of_exn ~phase = function
  | Error t -> t
  | exn ->
      {
        kind = Fault { site = Scheduler; hint = Abort };
        phase;
        detail = Printexc.to_string exn;
      }
