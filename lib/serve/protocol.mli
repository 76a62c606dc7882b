(** The [vcilk serve] wire protocol: newline-delimited JSON frames.

    One request per line, one response per line, matched by the
    client-chosen [id] (responses to pipelined requests may arrive out of
    order).  Two bare-text escape hatches ride the same connection for
    debugging with [nc]: a line of ["/stats"] returns the one-line stats
    rendering, ["/ping"] a one-line pong.

    Framing violations are {e typed}: malformed JSON, an oversized frame,
    and a read timeout all surface as {!Vc_core.Vc_error.t} values with
    site [Protocol], which the server maps onto the response [status]
    field — the daemon never dies on client input. *)

type op = Run | Stats | Ping

type request = {
  id : string;  (** client-chosen correlation id (echoed back) *)
  op : op;
  bench : string;  (** benchmark or loaded [.rtp] workload name *)
  engine : string;  (** ["engine"] (cost model) | ["blocked"] | ["compiled"] *)
  strategy : string;  (** ["bfs"] | ["noreexp"] | ["reexp"] *)
  block : int;  (** hybrid block size / re-expansion threshold *)
  machine : string;  (** ["e5"] | ["phi"] (cost-model engine only) *)
  deadline : float option;  (** modeled-cycle budget for this request *)
  wall_deadline : float option;  (** wall-clock budget, seconds *)
  max_live_frames : int option;
  max_tasks : int option;
  delay_ms : int;
      (** synthetic pre-execution think time — loadgen/backpressure
          testing aid, clamped by the server *)
}

val run_request : bench:string -> request
(** A [Run] request with every field at its default. *)

val request_line : request -> string
(** Render a request as one wire frame (no trailing newline). *)

val parse_request : string -> (request, Vc_core.Vc_error.t) result
(** Parse one frame.  All failures (malformed JSON, wrong field types,
    unknown op/engine/strategy, missing [bench]) are [Protocol]-site
    faults carrying a human-readable detail. *)

val point : request -> Vc_bench.Registry.entry -> Vc_exp.Sweep.point
(** The execution point a [Run] request names, on the resolved [entry].
    Raises a [Protocol]-site {!Vc_core.Vc_error.Error} on an unknown
    engine or strategy, or an unknown machine for the cost model (the
    wall engines ignore [machine]). *)

(** {1 Response statuses} *)

type status =
  | Ok_
  | Overloaded  (** admission control: bounded queue full *)
  | Budget_limit  (** a per-request budget or deadline was exceeded *)
  | Fault_  (** unrecovered runtime fault *)
  | Bad_request  (** protocol violation: parse error, oversized frame *)
  | Unknown_bench
  | Shutting_down  (** daemon is draining; request was not queued *)
  | Timeout_  (** per-connection read timeout *)
  | Internal

val status_name : status -> string
val status_of_string : string -> status option

val status_of_error : Vc_core.Vc_error.t -> status
(** [Queue_depth] budgets map to [Overloaded], other budgets to
    [Budget_limit], [Protocol]-site faults to [Bad_request], everything
    else to [Fault_]. *)

(** {1 Response rendering} *)

val ok_line :
  id:string -> trace:string -> (string * Vc_exp.Jsonx.t) list -> string
(** One [status:"ok"] response line with the given body fields. *)

val error_line :
  id:string -> ?trace:string -> status -> detail:string -> string
(** One error response line; budget statuses should carry their
    resource/limit/actual in [detail]. *)

val error_line_of :
  id:string -> ?trace:string -> Vc_core.Vc_error.t -> string
(** {!error_line} with status and detail derived from the typed error. *)

(** {1 Response parsing (client side)} *)

type reply = {
  r_id : string;
  r_status : status;
  r_trace : string;
  r_detail : string;
  r_reducers : (string * int) list;
  r_tasks : int;
  r_base_tasks : int;
  r_cycles : float;  (** modeled cycles (cost-model engine), else 0 *)
  r_wall_ms : float;  (** server-side execution wall time *)
  r_raw : Vc_exp.Jsonx.t;
}

val parse_reply : string -> (reply, string) result

(** {1 Framing} *)

type reader

val reader : Unix.file_descr -> reader

val buffered : reader -> int
(** Bytes of an incomplete frame currently buffered (a nonzero value at
    [Eof] means the peer dropped mid-frame). *)

type frame =
  | Frame of string
  | Eof
  | Timeout_frame  (** nothing arrived within this call's [timeout] *)
  | Oversized  (** frame exceeded [max_frame] — close the connection *)

val read_frame : ?timeout:float -> max_frame:int -> reader -> frame
(** Read the next newline-terminated frame ([timeout] default 1s).
    [Timeout_frame] is per-call — callers implement idle timeouts by
    summing; [Oversized] poisons the stream (the reader cannot resync),
    so the connection must be closed. *)

val write_line : Unix.file_descr -> string -> unit
(** Write [line + "\n"] fully.  Raises [Unix.Unix_error] on a dead peer
    ([EPIPE] — arm [Sys.sigpipe] to [Signal_ignore]). *)
