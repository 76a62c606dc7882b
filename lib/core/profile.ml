(* Cycle-attribution profiler.

   Consumes span-open/close events from a Telemetry hub and charges the
   modeled-cycle clock deltas between span boundaries to the innermost
   open frame path (benchmark -> phase -> spawn site ...).  Only span
   boundaries move the attribution cursor: other events (Level, Cache)
   may carry backdated interval timestamps and are used solely for their
   counters.

   Exactness: every clock reading is VM issue cycles + hierarchy penalty
   cycles, and all ISA costs / miss penalties are multiples of 0.5, so
   timestamps, deltas and their sums are exact IEEE doubles (half-integer
   values far below 2^52).  Charged segments telescope: the sum over all
   frames equals last-boundary minus first-boundary with no rounding, so
   a completed run's total reconciles bit-for-bit with Report.cycles. *)

type node = {
  mutable cycles : float;
  mutable opens : int;
  mutable compaction_calls : int;
  mutable compaction_passes : int;
  mutable converts : int;
  mutable faults : int;
}

type t = {
  (* innermost frame first; [] = no span open (untracked time) *)
  mutable stack : string list;
  mutable cursor : float;
  mutable events : int;
  mutable unbalanced : int;
  tbl : (string list, node) Hashtbl.t;
}

let create () =
  { stack = []; cursor = 0.0; events = 0; unbalanced = 0; tbl = Hashtbl.create 64 }

let reset t =
  t.stack <- [];
  t.cursor <- 0.0;
  t.events <- 0;
  t.unbalanced <- 0;
  Hashtbl.reset t.tbl

let untracked = "(untracked)"

let node_of t path =
  match Hashtbl.find_opt t.tbl path with
  | Some n -> n
  | None ->
      let n =
        {
          cycles = 0.0;
          opens = 0;
          compaction_calls = 0;
          compaction_passes = 0;
          converts = 0;
          faults = 0;
        }
      in
      Hashtbl.add t.tbl path n;
      n

let current_node t =
  node_of t (match t.stack with [] -> [ untracked ] | stack -> stack)

(* Charge the clock segment [cursor, ts) to the innermost open frame and
   advance the cursor.  Called only at span boundaries, whose timestamps
   are monotone current-clock readings. *)
let charge t ts =
  let dt = ts -. t.cursor in
  if dt <> 0.0 then (current_node t).cycles <- (current_node t).cycles +. dt;
  t.cursor <- ts

let observe t ({ ts; ev; _ } : Telemetry.stamped) =
  t.events <- t.events + 1;
  match ev with
  | Telemetry.Span_open { frame } ->
      charge t ts;
      t.stack <- frame :: t.stack;
      (current_node t).opens <- (current_node t).opens + 1
  | Telemetry.Span_close { frame } -> (
      charge t ts;
      match t.stack with
      | top :: rest when String.equal top frame -> t.stack <- rest
      | stack when List.exists (String.equal frame) stack ->
          (* close of an outer frame: inner spans were abandoned without a
             close (should not happen; tolerated, counted) *)
          let rec pop = function
            | top :: rest ->
                if String.equal top frame then rest
                else begin
                  t.unbalanced <- t.unbalanced + 1;
                  pop rest
                end
            | [] -> []
          in
          t.stack <- pop stack
      | _ -> t.unbalanced <- t.unbalanced + 1)
  | Telemetry.Compaction { passes; _ } ->
      let n = current_node t in
      n.compaction_calls <- n.compaction_calls + 1;
      n.compaction_passes <- n.compaction_passes + passes
  | Telemetry.Convert _ -> (current_node t).converts <- (current_node t).converts + 1
  | Telemetry.Fault _ -> (current_node t).faults <- (current_node t).faults + 1
  | Telemetry.Level _ | Telemetry.Switch _ | Telemetry.Reexpand _
  | Telemetry.Cache _ | Telemetry.Fallback _
  | Telemetry.Deadline _ | Telemetry.Steal _ | Telemetry.Mark _ -> ()

(* Clearing the hub (the engine does between its warm and measured
   passes) must also discard warm-pass attributions, or the measured
   totals would double-count. *)
let sink t = Telemetry.callback_sink ~on_clear:(fun () -> reset t) (observe t)

let attach t tel = Telemetry.attach tel (sink t)

(* ------------------------------------------------------------------ *)
(* Views *)

type frame = {
  stack : string list;  (** outermost first *)
  cycles : float;
  opens : int;
  compaction_calls : int;
  compaction_passes : int;
  converts : int;
  faults : int;
}

let frames t =
  Hashtbl.fold
    (fun path (n : node) acc ->
      {
        stack = List.rev path;
        cycles = n.cycles;
        opens = n.opens;
        compaction_calls = n.compaction_calls;
        compaction_passes = n.compaction_passes;
        converts = n.converts;
        faults = n.faults;
      }
      :: acc)
    t.tbl []
  |> List.sort (fun a b ->
         match compare b.cycles a.cycles with
         | 0 -> compare a.stack b.stack
         | c -> c)

let total_cycles t =
  Hashtbl.fold (fun _ (n : node) acc -> acc +. n.cycles) t.tbl 0.0

let unbalanced t = t.unbalanced

let path_string stack = String.concat ";" stack

(* Cycle values are exact half-integers; print them without loss so
   folded-stack consumers summing the column reconcile exactly. *)
let cycles_string c =
  if Float.is_integer c then Printf.sprintf "%.0f" c else Printf.sprintf "%.17g" c

let folded t =
  let buf = Buffer.create 256 in
  frames t
  |> List.filter (fun f -> f.cycles <> 0.0)
  |> List.sort (fun a b -> compare a.stack b.stack)
  |> List.iter (fun f ->
         Buffer.add_string buf (path_string f.stack);
         Buffer.add_char buf ' ';
         Buffer.add_string buf (cycles_string f.cycles);
         Buffer.add_char buf '\n');
  Buffer.contents buf

let pp_hotspots ?(top = 10) fmt t =
  let total = total_cycles t in
  let all = frames t in
  let shown = List.filteri (fun i _ -> i < top) all in
  Format.fprintf fmt "%12s %6s %7s %7s %5s  %s@." "CYCLES" "%" "OPENS" "CPASS"
    "CONV" "FRAME";
  List.iter
    (fun f ->
      Format.fprintf fmt "%12s %6.2f %7d %7d %5d  %s@." (cycles_string f.cycles)
        (if total > 0.0 then 100.0 *. f.cycles /. total else 0.0)
        f.opens f.compaction_passes f.converts (path_string f.stack))
    shown;
  let rest = List.length all - List.length shown in
  if rest > 0 then Format.fprintf fmt "  ... %d more frame(s)@." rest;
  Format.fprintf fmt "total: %s modeled cycles over %d events" (cycles_string total)
    t.events;
  if t.unbalanced > 0 then Format.fprintf fmt " (%d unbalanced spans)" t.unbalanced;
  Format.fprintf fmt "@."

(* Self-contained JSON (the experiment-layer JSON library sits above this
   one in the dependency order).  Frame paths are ASCII metadata from
   this codebase; escaped defensively anyway. *)
let json_escape s =
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

let json_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\"total_cycles\":%s,\"events\":%d,\"unbalanced\":%d,\"frames\":["
       (cycles_string (total_cycles t))
       t.events t.unbalanced);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"stack\":[%s],\"cycles\":%s,\"opens\":%d,\"compaction_calls\":%d,\"compaction_passes\":%d,\"converts\":%d,\"faults\":%d}"
           (String.concat ","
              (List.map (fun s -> "\"" ^ json_escape s ^ "\"") f.stack))
           (cycles_string f.cycles) f.opens f.compaction_calls f.compaction_passes
           f.converts f.faults))
    (frames t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
