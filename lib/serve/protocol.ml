module E = Vc_core.Vc_error
module J = Vc_exp.Jsonx

type op = Run | Stats | Ping

type request = {
  id : string;
  op : op;
  bench : string;
  engine : string;
  strategy : string;
  block : int;
  machine : string;
  deadline : float option;
  wall_deadline : float option;
  max_live_frames : int option;
  max_tasks : int option;
  delay_ms : int;
}

let run_request ~bench =
  {
    id = "";
    op = Run;
    bench;
    engine = "engine";
    strategy = "reexp";
    block = 4096;
    machine = "e5";
    deadline = None;
    wall_deadline = None;
    max_live_frames = None;
    max_tasks = None;
    delay_ms = 0;
  }

let proto_error fmt =
  Printf.ksprintf
    (fun detail ->
      Error
        {
          E.kind = E.Fault { site = E.Protocol; hint = E.Abort };
          phase = E.Execute;
          detail;
        })
    fmt

module Sweep = Vc_exp.Sweep

(* seq and strawman have no blocked scheduler, so they are not served *)
let strategies = [ "bfs"; "noreexp"; "reexp" ]

let parse_request line =
  let trimmed = String.trim line in
  if trimmed = "/stats" then Ok { (run_request ~bench:"") with op = Stats }
  else if trimmed = "/ping" then Ok { (run_request ~bench:"") with op = Ping }
  else
    match J.parse line with
    | Error msg -> proto_error "malformed JSON frame: %s" msg
    | Ok (J.Obj _ as j) -> (
        let str_field name default =
          match J.member name j with
          | J.Null -> default
          | J.String s -> s
          | _ -> J.decode_error "field %S must be a string" name
        in
        let int_field name default =
          match J.member name j with
          | J.Null -> default
          | J.Int i -> i
          | _ -> J.decode_error "field %S must be an integer" name
        in
        let float_opt name =
          match J.member name j with
          | J.Null -> None
          | J.Int i -> Some (float_of_int i)
          | J.Float f -> Some f
          | _ -> J.decode_error "field %S must be a number" name
        in
        let int_opt name =
          match J.member name j with
          | J.Null -> None
          | J.Int i -> Some i
          | _ -> J.decode_error "field %S must be an integer" name
        in
        try
          let op =
            match str_field "op" "run" with
            | "run" -> Run
            | "stats" -> Stats
            | "ping" -> Ping
            | other -> J.decode_error "unknown op %S" other
          in
          let req =
            {
              id = str_field "id" "";
              op;
              bench = str_field "bench" "";
              engine = str_field "engine" "engine";
              strategy = str_field "strategy" "reexp";
              block = int_field "block" 4096;
              machine = str_field "machine" "e5";
              deadline = float_opt "deadline";
              wall_deadline = float_opt "wall_deadline";
              max_live_frames = int_opt "max_live_frames";
              max_tasks = int_opt "max_tasks";
              delay_ms = int_field "delay_ms" 0;
            }
          in
          if op = Run && req.bench = "" then
            proto_error "run request is missing the \"bench\" field"
          else if op = Run && Sweep.engine_of_string req.engine = None then
            proto_error "unknown engine %S (expected %s)" req.engine
              (String.concat "|" (List.map Sweep.engine_name Sweep.engines))
          else if op = Run && not (List.mem req.strategy strategies) then
            proto_error "unknown strategy %S (expected bfs|noreexp|reexp)"
              req.strategy
          else if req.block < 1 then proto_error "block must be >= 1"
          else if req.delay_ms < 0 then proto_error "delay_ms must be >= 0"
          else Ok req
        with J.Decode msg -> proto_error "invalid request: %s" msg)
    | Ok _ -> proto_error "request frame must be a JSON object"

let point (req : request) entry =
  let unknown what v =
    E.fail ~phase:E.Execute E.Protocol E.Abort "unknown %s %S" what v
  in
  let p = Sweep.point entry in
  let engine =
    match Sweep.engine_of_string req.engine with
    | Some e -> e
    | None -> unknown "engine" req.engine
  in
  let strategy =
    match Sweep.strategy_of_string req.strategy with
    | Some s when List.mem req.strategy strategies -> s
    | _ -> unknown "strategy" req.strategy
  in
  let machine =
    match Vc_mem.Machine.find req.machine with
    | m -> m
    (* the wall engines have no machine model *)
    | exception Not_found when engine <> Sweep.Model -> p.machine
    | exception Not_found -> unknown "machine" req.machine
  in
  { p with engine; machine; strategy; block = req.block }

let op_name = function Run -> "run" | Stats -> "stats" | Ping -> "ping"

let request_line (r : request) =
  let opt name f v = match v with None -> [] | Some x -> [ (name, f x) ] in
  J.to_string
    (J.Obj
       ([
          ("id", J.String r.id);
          ("op", J.String (op_name r.op));
          ("bench", J.String r.bench);
          ("engine", J.String r.engine);
          ("strategy", J.String r.strategy);
          ("block", J.Int r.block);
          ("machine", J.String r.machine);
        ]
       @ opt "deadline" (fun f -> J.Float f) r.deadline
       @ opt "wall_deadline" (fun f -> J.Float f) r.wall_deadline
       @ opt "max_live_frames" (fun i -> J.Int i) r.max_live_frames
       @ opt "max_tasks" (fun i -> J.Int i) r.max_tasks
       @ if r.delay_ms > 0 then [ ("delay_ms", J.Int r.delay_ms) ] else []))

(* -------------------------------------------------------------- statuses *)

type status =
  | Ok_
  | Overloaded
  | Budget_limit
  | Fault_
  | Bad_request
  | Unknown_bench
  | Shutting_down
  | Timeout_
  | Internal

let status_name = function
  | Ok_ -> "ok"
  | Overloaded -> "overloaded"
  | Budget_limit -> "budget_exceeded"
  | Fault_ -> "fault"
  | Bad_request -> "bad_request"
  | Unknown_bench -> "unknown_bench"
  | Shutting_down -> "shutting_down"
  | Timeout_ -> "timeout"
  | Internal -> "internal"

let status_of_string = function
  | "ok" -> Some Ok_
  | "overloaded" -> Some Overloaded
  | "budget_exceeded" -> Some Budget_limit
  | "fault" -> Some Fault_
  | "bad_request" -> Some Bad_request
  | "unknown_bench" -> Some Unknown_bench
  | "shutting_down" -> Some Shutting_down
  | "timeout" -> Some Timeout_
  | "internal" -> Some Internal
  | _ -> None

let status_of_error (e : E.t) =
  match e.kind with
  | E.Budget_exceeded { resource = E.Queue_depth; _ } -> Overloaded
  | E.Budget_exceeded _ -> Budget_limit
  | E.Fault { site = E.Protocol; _ } -> Bad_request
  | E.Fault _ -> Fault_

(* ------------------------------------------------------------- rendering *)

let ok_line ~id ~trace fields =
  J.to_string
    (J.Obj
       (("id", J.String id)
       :: ("trace", J.String trace)
       :: ("status", J.String "ok")
       :: fields))

let error_line ~id ?trace status ~detail =
  let trace_field =
    match trace with None -> [] | Some t -> [ ("trace", J.String t) ]
  in
  J.to_string
    (J.Obj
       ((("id", J.String id) :: trace_field)
       @ [
           ("status", J.String (status_name status));
           ("detail", J.String detail);
         ]))

let error_line_of ~id ?trace (e : E.t) =
  error_line ~id ?trace (status_of_error e) ~detail:(E.to_string e)

(* ------------------------------------------------------- client parsing *)

type reply = {
  r_id : string;
  r_status : status;
  r_trace : string;
  r_detail : string;
  r_reducers : (string * int) list;
  r_tasks : int;
  r_base_tasks : int;
  r_cycles : float;
  r_wall_ms : float;
  r_raw : J.t;
}

let parse_reply line =
  match J.parse line with
  | Error msg -> Error (Printf.sprintf "malformed reply: %s" msg)
  | Ok j -> (
      try
        let str name d =
          match J.member name j with J.Null -> d | v -> J.to_str v
        in
        let num name d =
          match J.member name j with J.Null -> d | v -> J.to_float v
        in
        let int name d =
          match J.member name j with J.Null -> d | v -> J.to_int v
        in
        let status_str = str "status" "" in
        match status_of_string status_str with
        | None -> Error (Printf.sprintf "unknown status %S" status_str)
        | Some r_status ->
            let r_reducers =
              match J.member "reducers" j with
              | J.Null -> []
              | v -> List.map (fun (k, v) -> (k, J.to_int v)) (J.obj_fields v)
            in
            Ok
              {
                r_id = str "id" "";
                r_status;
                r_trace = str "trace" "";
                r_detail = str "detail" "";
                r_reducers;
                r_tasks = int "tasks" 0;
                r_base_tasks = int "base_tasks" 0;
                r_cycles = num "cycles" 0.0;
                r_wall_ms = num "wall_ms" 0.0;
                r_raw = j;
              }
      with J.Decode msg -> Error (Printf.sprintf "invalid reply: %s" msg))

(* --------------------------------------------------------------- framing *)

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : bytes }

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096 }
let buffered r = Buffer.length r.buf

type frame = Frame of string | Eof | Timeout_frame | Oversized

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      Some line

let read_frame ?(timeout = 1.0) ~max_frame r =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match take_line r with
    | Some line ->
        if String.length line > max_frame then Oversized else Frame line
    | None ->
        if Buffer.length r.buf > max_frame then Oversized
        else
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then Timeout_frame
          else begin
            match Unix.select [ r.fd ] [] [] remaining with
            | [], _, _ -> Timeout_frame
            | _ -> (
                match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
                | 0 -> Eof
                | n ->
                    Buffer.add_subbytes r.buf r.chunk 0 n;
                    go ()
                | exception
                    Unix.Unix_error
                      ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                    Eof)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error (Unix.EBADF, _, _) -> Eof
          end
  in
  go ()

let write_line fd line =
  let payload = line ^ "\n" in
  let len = String.length payload in
  let rec loop off =
    if off < len then begin
      match Unix.write_substring fd payload off (len - off) with
      | n -> loop (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
    end
  in
  loop 0
