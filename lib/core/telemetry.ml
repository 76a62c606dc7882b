type phase = Bfs | Blocked | Cutoff

let phase_name = function Bfs -> "bfs" | Blocked -> "blocked" | Cutoff -> "cutoff"

type event =
  | Level of { phase : phase; depth : int; size : int; base : int }
  | Switch of { depth : int; size : int }
  | Reexpand of { depth : int; size : int; shrink : float }
  | Compaction of { engine : string; width : int; n : int; passes : int }
  | Convert of { to_soa : bool; n : int; fields : int }
  | Cache of { level : string; depth : int; accesses : int; misses : int }
  | Fault of { site : string; detail : string }
  | Fallback of { depth : int; size : int }
  | Deadline of { resource : string; limit : float; actual : float }
  | Steal of { thief : int; victim : int; chunk : int }
  | Span_open of { frame : string }
  | Span_close of { frame : string }
  | Mark of string

type stamped = { seq : int; ts : float; dur : float; ev : event }

(* ------------------------------------------------------------------ *)
(* Sinks *)

type ring = {
  cap : int;
  buf : stamped array;
  mutable filled : int;  (** total events ever pushed *)
}

type stream = {
  write : stamped -> unit;
  stream_flush : unit -> unit;
  stream_clear : unit -> unit;
  mutable dead : bool;
      (** Set after the first I/O failure; the sink is skipped from then
          on so one broken channel cannot re-fault every later event. *)
}

type sink = Null | Ring of ring | Stream of stream

let dummy = { seq = 0; ts = 0.0; dur = 0.0; ev = Mark "" }

let null = Null

let ring ~capacity =
  if capacity < 1 then invalid_arg "Telemetry.ring: capacity must be positive";
  Ring { cap = capacity; buf = Array.make capacity dummy; filled = 0 }

let ring_events = function
  | Ring r ->
      let n = min r.filled r.cap in
      (* oldest first: the buffer is a circular window over the tail *)
      List.init n (fun i -> r.buf.((r.filled - n + i) mod r.cap))
  | Null | Stream _ -> []

let nop () = ()

let callback_sink ?(on_clear = nop) f =
  Stream { write = f; stream_flush = nop; stream_clear = on_clear; dead = false }

type counts = { faults : int; fallbacks : int; deadlines : int }

let counting_sink () =
  let faults = ref 0 and fallbacks = ref 0 and deadlines = ref 0 in
  ( callback_sink (fun { ev; _ } ->
        match ev with
        | Fault _ -> incr faults
        | Fallback _ -> incr fallbacks
        | Deadline _ -> incr deadlines
        | _ -> ()),
    fun () -> { faults = !faults; fallbacks = !fallbacks; deadlines = !deadlines } )

let level_sink () =
  let levels = ref [] in
  ( callback_sink
      ~on_clear:(fun () -> levels := [])
      (fun st -> match st.ev with Level _ -> levels := st :: !levels | _ -> ()),
    fun () -> List.rev !levels )

(* ------------------------------------------------------------------ *)
(* JSON rendering.  Self-contained (the JSON library of the experiment
   layer sits above this one in the dependency order): every emitted
   string is ASCII metadata from this codebase, escaped defensively
   anyway. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num f =
  (* JSON has no inf/nan; clamp defensively *)
  if Float.is_finite f then Printf.sprintf "%.3f" f else "0.0"

let event_name = function
  | Level { phase; _ } -> "level:" ^ phase_name phase
  | Switch _ -> "switch:bfs->blocked"
  | Reexpand _ -> "reexpand"
  | Compaction { engine; _ } -> "compact:" ^ engine
  | Convert { to_soa; _ } -> if to_soa then "convert:aos->soa" else "convert:soa->aos"
  | Cache { level; _ } -> "cache:" ^ level
  | Fault { site; _ } -> "fault:" ^ site
  | Fallback _ -> "fallback:scalar"
  | Deadline { resource; _ } -> "deadline:" ^ resource
  | Steal _ -> "steal"
  (* open and close share the name so Chrome "B"/"E" pairs match up *)
  | Span_open { frame } | Span_close { frame } -> "span:" ^ frame
  | Mark m -> "mark:" ^ m

let args_fields = function
  | Level { depth; size; base; _ } ->
      [ ("depth", string_of_int depth); ("size", string_of_int size);
        ("base", string_of_int base) ]
  | Switch { depth; size } ->
      [ ("depth", string_of_int depth); ("size", string_of_int size) ]
  | Reexpand { depth; size; shrink } ->
      [ ("depth", string_of_int depth); ("size", string_of_int size);
        ("shrink", num shrink) ]
  | Compaction { engine; width; n; passes } ->
      [ ("engine", Printf.sprintf "%S" (escape engine)); ("width", string_of_int width);
        ("n", string_of_int n); ("passes", string_of_int passes) ]
  | Convert { to_soa; n; fields } ->
      [ ("to_soa", string_of_bool to_soa); ("n", string_of_int n);
        ("fields", string_of_int fields) ]
  | Cache { level; depth; accesses; misses } ->
      [ ("cache", Printf.sprintf "%S" (escape level)); ("depth", string_of_int depth);
        ("accesses", string_of_int accesses); ("misses", string_of_int misses) ]
  | Fault { site; detail } ->
      [ ("site", Printf.sprintf "%S" (escape site));
        ("detail", Printf.sprintf "%S" (escape detail)) ]
  | Fallback { depth; size } ->
      [ ("depth", string_of_int depth); ("size", string_of_int size) ]
  | Deadline { resource; limit; actual } ->
      [ ("resource", Printf.sprintf "%S" (escape resource)); ("limit", num limit);
        ("actual", num actual) ]
  | Steal { thief; victim; chunk } ->
      [ ("thief", string_of_int thief); ("victim", string_of_int victim);
        ("chunk", string_of_int chunk) ]
  | Span_open { frame } ->
      [ ("frame", Printf.sprintf "%S" (escape frame)); ("open", "true") ]
  | Span_close { frame } ->
      [ ("frame", Printf.sprintf "%S" (escape frame)); ("open", "false") ]
  | Mark m -> [ ("mark", Printf.sprintf "%S" (escape m)) ]

let args_json ev =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) (args_fields ev))
  ^ "}"

(* [trace] tags the line with a request/trace id — the serve daemon
   threads one per request, so a shared JSONL stream can be filtered back
   into per-request event sequences. *)
let jsonl_of_event ?trace { seq; ts; dur; ev } =
  let trace_field =
    match trace with
    | None -> ""
    | Some id -> Printf.sprintf "\"trace\":\"%s\"," (escape id)
  in
  Printf.sprintf "{%s\"seq\":%d,\"ts\":%s,\"dur\":%s,\"name\":\"%s\",\"args\":%s}"
    trace_field seq (num ts) (num dur)
    (escape (event_name ev))
    (args_json ev)

(* Chrome trace-event format (chrome://tracing, Perfetto): Level events
   become complete ("X") slices with their modeled-cycle duration,
   attribution spans become nestable begin/end ("B"/"E") pairs, cache
   deltas become counter ("C") tracks, everything else an instant ("i"). *)
let chrome_of_event { ts; dur; ev; _ } =
  let name = escape (event_name ev) in
  match ev with
  | Level _ ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1,\"args\":%s}"
        name (num ts) (num dur) (args_json ev)
  | Span_open _ ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%s,\"pid\":1,\"tid\":1}"
        name (num ts)
  | Span_close _ ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%s,\"pid\":1,\"tid\":1}"
        name (num ts)
  | Cache { level; accesses; misses; _ } ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"args\":{\"accesses\":%d,\"misses\":%d}}"
        (escape ("cache:" ^ level)) (num ts) accesses misses
  | Switch _ | Reexpand _ | Compaction _ | Convert _ | Fault _ | Fallback _
  | Deadline _ | Steal _ | Mark _ ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%s,\"s\":\"t\",\"pid\":1,\"tid\":1,\"args\":%s}"
        name (num ts) (args_json ev)

let jsonl_sink ?trace oc =
  Stream
    {
      write =
        (fun st ->
          output_string oc (jsonl_of_event ?trace st);
          output_char oc '\n');
      stream_flush = (fun () -> flush oc);
      stream_clear = (fun () -> ());
      dead = false;
    }

let chrome_sink oc =
  (* buffered: the enclosing JSON array is only well-formed once flushed *)
  let events = ref [] in
  let flushed = ref false in
  Stream
    {
      write = (fun st -> events := chrome_of_event st :: !events);
      stream_flush =
        (fun () ->
          if not !flushed then begin
            flushed := true;
            output_string oc "[";
            List.iteri
              (fun i line ->
                if i > 0 then output_string oc ",\n" else output_string oc "\n";
                output_string oc line)
              (List.rev !events);
            output_string oc "\n]\n";
            flush oc
          end);
      stream_clear = (fun () -> events := []);
      dead = false;
    }

(* ------------------------------------------------------------------ *)
(* Hub *)

type t = {
  mutable sinks : sink list;
  mutable seq : int;
  mutable clock : (unit -> float) option;
  mutable enabled : bool;
}

let create () = { sinks = []; seq = 0; clock = None; enabled = false }

let with_sinks sinks =
  let t = create () in
  t.sinks <- List.filter (function Null -> false | _ -> true) sinks;
  t.enabled <- t.sinks <> [];
  t

let attach t sink =
  match sink with
  | Null -> ()
  | _ ->
      t.sinks <- t.sinks @ [ sink ];
      t.enabled <- true

let enabled t = t.enabled

let set_clock t clock = t.clock <- Some clock

let now t =
  match t.clock with Some f -> f () | None -> float_of_int t.seq

(* A stream sink whose channel breaks (closed fd, full disk) would leak a
   bare [Sys_error] out of whatever instrumented executor happened to emit
   the next event.  Instead: mark the sink dead — it is skipped from then
   on, other sinks keep receiving events — and surface one typed
   telemetry fault so supervised callers can classify it. *)
let sink_failed ~phase (s : stream) msg =
  s.dead <- true;
  Vc_error.fail ~phase Vc_error.Telemetry Vc_error.Discard_entry
    "sink write failed, sink dropped: %s" msg

let push_sink st = function
  | Null -> ()
  | Ring r ->
      r.buf.(r.filled mod r.cap) <- st;
      r.filled <- r.filled + 1
  | Stream s when s.dead -> ()
  | Stream s -> (
      try s.write st with Sys_error msg -> sink_failed ~phase:Vc_error.Execute s msg)

let emit ?ts ?(dur = 0.0) t ev =
  if t.enabled then begin
    let ts = match ts with Some ts -> ts | None -> now t in
    let st = { seq = t.seq; ts; dur; ev } in
    t.seq <- t.seq + 1;
    List.iter (push_sink st) t.sinks
  end

(* Chunk workers run on other domains and must not share the caller's
   single-domain hub: each gets a private hub that records its recovery
   events, replayed onto the caller's hub after the join so a caller-side
   counting sink sees every chunk's faults and fallbacks. *)
let chunk_hub caller =
  if not caller.enabled then (create (), nop)
  else begin
    let log = ref [] in
    let record st =
      match st.ev with Fault _ | Fallback _ -> log := st.ev :: !log | _ -> ()
    in
    ( with_sinks [ callback_sink record ],
      fun () -> List.iter (emit caller) (List.rev !log) )
  end

let clear t =
  t.seq <- 0;
  List.iter
    (function
      | Null -> ()
      | Ring r -> r.filled <- 0
      | Stream s -> if not s.dead then s.stream_clear ())
    t.sinks

let flush t =
  List.iter
    (function
      | Null | Ring _ -> ()
      | Stream s when s.dead -> ()
      | Stream s -> (
          try s.stream_flush ()
          with Sys_error msg -> sink_failed ~phase:Vc_error.Persist s msg))
    t.sinks

(* ------------------------------------------------------------------ *)
(* Derived views *)

let occupancy ~width ~size =
  if size <= 0 || width <= 0 then 0.0
  else
    let slots = (size + width - 1) / width * width in
    float_of_int size /. float_of_int slots

let levels events =
  List.filter_map
    (fun st -> match st.ev with Level _ -> Some st | _ -> None)
    events

let occupancy_points ~width phase levels =
  List.filter_map
    (fun st ->
      match st.ev with
      | Level { phase = p; size; _ } when p = phase ->
          Some (st.ts /. 1e3, occupancy ~width ~size)
      | _ -> None)
    levels

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let pp_levels ?(limit = 40) fmt levels =
  let levels =
    List.filter_map
      (fun st ->
        match st.ev with
        | Level { phase; depth; size; base } -> Some (phase, depth, size, base)
        | _ -> None)
      levels
  in
  Format.fprintf fmt "@[<v>%6s %-8s %6s %10s %8s  %s@," "#" "phase" "depth"
    "threads" "base" "log2(size)";
  List.iteri
    (fun i (phase, depth, size, base) ->
      if i < limit then
        Format.fprintf fmt "%6d %-8s %6d %10d %8d  %s@," i (phase_name phase) depth
          size base
          (String.make (log2i (max size 1)) '#'))
    levels;
  let n = List.length levels in
  if n > limit then Format.fprintf fmt "  ... %d more events@," (n - limit);
  Format.fprintf fmt "summary:";
  List.iter
    (fun p ->
      match List.length (List.filter (fun (q, _, _, _) -> q = p) levels) with
      | 0 -> ()
      | k -> Format.fprintf fmt " %s=%d" (phase_name p) k)
    [ Bfs; Blocked; Cutoff ];
  Format.fprintf fmt "@]@."
