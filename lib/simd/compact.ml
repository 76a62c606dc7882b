type engine =
  | Sequential
  | Full_table
  | Factorized of { sub_width : int }
  | Prefix_scatter of { sub_width : int }

exception Unsupported of { engine : string; isa : string; reason : string }

let name = function
  | Sequential -> "sequential"
  | Full_table -> "full-table"
  | Factorized { sub_width } -> Printf.sprintf "factorized-%d" sub_width
  | Prefix_scatter { sub_width } -> Printf.sprintf "prefix-scatter-%d" sub_width

let default_for (isa : Isa.t) ~width =
  if isa.Isa.has_shuffle then
    if width <= 8 then Full_table else Factorized { sub_width = 8 }
  else Prefix_scatter { sub_width = Int.min width 8 }

let legal (isa : Isa.t) = function
  | Sequential -> true
  | Full_table | Factorized _ -> isa.Isa.has_shuffle
  | Prefix_scatter _ -> isa.Isa.has_masked_scatter

(* Tables live in a fixed, small region of the modeled address space; they
   are hot and tiny, so they cache well — exactly the paper's argument for
   tabulating the shuffle controls. *)
let table_region_base = 0x1000_0000

(* The memo tables are shared across every engine instance and, with the
   domain-parallel sweep executor, across domains.  All access goes through
   [tables_lock]: lookups are rare (once per [partition] call, not per
   chunk) and the tables themselves are immutable after construction, so a
   single mutex both prevents racing [Hashtbl.add]s and publishes the
   freshly built table to other domains. *)
let tables_lock = Mutex.create ()
let shuffle_tables : (int, Shuffle_table.t) Hashtbl.t = Hashtbl.create 8
let prefix_tables : (int, Prefix_table.t) Hashtbl.t = Hashtbl.create 8

let shuffle_table width =
  Mutex.protect tables_lock @@ fun () ->
  match Hashtbl.find_opt shuffle_tables width with
  | Some t -> t
  | None ->
      let t = Shuffle_table.make ~width in
      Hashtbl.add shuffle_tables width t;
      t

let prefix_table width =
  Mutex.protect tables_lock @@ fun () ->
  match Hashtbl.find_opt prefix_tables width with
  | Some t -> t
  | None ->
      let t = Prefix_table.make ~width in
      Hashtbl.add prefix_tables width t;
      t

let table_memory_bytes engine ~width =
  match engine with
  | Sequential -> 0
  | Full_table -> Shuffle_table.memory_bytes (shuffle_table width)
  | Factorized { sub_width } -> Shuffle_table.memory_bytes (shuffle_table sub_width)
  | Prefix_scatter { sub_width } -> Prefix_table.memory_bytes (prefix_table sub_width)

let check_sub_width engine ~isa ~width ~sub_width =
  if sub_width < 1 || sub_width > width || width mod sub_width <> 0 then
    raise
      (Unsupported
         {
           engine = name engine;
           isa;
           reason =
             Printf.sprintf "Compact: sub_width %d must divide width %d" sub_width
               width;
         })

type rows = { mutable idx : int array; mutable len : int }

let rows () = { idx = [||]; len = 0 }

(* Empty [r], with room for [n] rows (grown geometrically, never shrunk:
   an engine's buffers settle at its widest block). *)
let reset_rows r n =
  if Array.length r.idx < n then r.idx <- Array.make (Int.max n (2 * Array.length r.idx)) 0;
  r.len <- 0

let push r i =
  r.idx.(r.len) <- i;
  r.len <- r.len + 1

(* Stable partition with a plain scalar loop: one compare + one store per
   element. *)
let sequential ~vm ~n ~pred ~sel ~rest =
  Vm.scalar_ops vm (2 * n);
  for i = 0 to n - 1 do
    push (if pred i then sel else rest) i
  done

type tables = Shuffle of Shuffle_table.t | Prefix of Prefix_table.t

(* Append the lanes of one sub-group (mask [m], first lane [lane0]) to
   [dst], charging one pass of the table-driven engine.  Shuffle: one
   shuffle-table lookup, one advance-table lookup and one shuffle per
   sub-group, appending at the running position (Fig. 8).  Prefix: one
   prefix-table lookup and, when any lane is kept, one masked scatter (the
   Phi path).  Only the table reads are traced to memory; the data
   movement of the reordered threads is charged by the block manager that
   consumes the permutation. *)
let compact_group vm ~width ~sub_width tables m ~lane0 dst =
  let stats = Vm.stats vm in
  stats.Stats.compaction_passes <- stats.Stats.compaction_passes + 1;
  let p = dst.len in
  match tables with
  | Shuffle table ->
      Vm.table_lookup vm
        ~addr:(table_region_base + (m * (sub_width + 1)))
        ~bytes:(sub_width + 1);
      (* advance-table read is adjacent to the shuffle control *)
      Vm.table_lookup vm ~addr:(table_region_base + (m * (sub_width + 1)) + sub_width) ~bytes:1;
      Vm.shuffle vm ~width;
      let control = Shuffle_table.shuffle_control table m in
      let cnt = Shuffle_table.advance table m in
      for i = 0 to cnt - 1 do
        dst.idx.(p + i) <- lane0 + control.(i)
      done;
      dst.len <- p + cnt
  | Prefix table ->
      Vm.table_lookup vm
        ~addr:(table_region_base + 0x10000 + (m * (sub_width + 1)))
        ~bytes:(sub_width + 1);
      let off = Prefix_table.offsets table m in
      let cnt = Prefix_table.advance table m in
      if cnt > 0 then begin
        (* the masked scatter instruction itself; its stores land in the
           compacted output block, charged by the block manager *)
        Vm.vector_op vm ~width ~active:cnt;
        stats.Stats.scatters <- stats.Stats.scatters + 1
      end;
      for lane = 0 to sub_width - 1 do
        if m land (1 lsl lane) <> 0 then dst.idx.(p + off.(lane)) <- lane0 + lane
      done;
      dst.len <- p + cnt

(* Chunked driver for the table-based engines.  The stream is processed
   [width] lanes at a time.  Each sub-group's keep-mask (at most 16 bits)
   is computed once per register; the unselected mask is the register's
   live lanes minus the selected ones, so lanes beyond the stream's end
   (final partial register) are inactive on both sides.  Working on
   sub-group masks rather than one register mask also covers registers
   wider than the native int (e.g. the 64-wide char lanes of AVX512BW). *)
let chunked ~vm ~width ~sub_width tables ~n ~pred ~sel ~rest =
  let groups = width / sub_width in
  let keep = Array.make groups 0 and live = Array.make groups 0 in
  let base = ref 0 in
  while !base < n do
    let chunk = Int.min width (n - !base) in
    for g = 0 to groups - 1 do
      let k = ref 0 and l = ref 0 in
      for i = 0 to sub_width - 1 do
        let lane = (g * sub_width) + i in
        if lane < chunk then begin
          l := !l lor (1 lsl i);
          if pred (!base + lane) then k := !k lor (1 lsl i)
        end
      done;
      keep.(g) <- !k;
      live.(g) <- !l
    done;
    for g = 0 to groups - 1 do
      compact_group vm ~width ~sub_width tables keep.(g) ~lane0:(!base + (g * sub_width)) sel
    done;
    for g = 0 to groups - 1 do
      compact_group vm ~width ~sub_width tables
        (live.(g) land lnot keep.(g))
        ~lane0:(!base + (g * sub_width))
        rest
    done;
    base := !base + width
  done

let partition_into ~vm ~engine ~width ~n ~pred ~sel ~rest =
  let isa_name = (Vm.isa vm).Isa.name in
  let unsupported reason =
    raise (Unsupported { engine = name engine; isa = isa_name; reason })
  in
  if width < 1 then unsupported "Compact.partition: width must be positive";
  if not (legal (Vm.isa vm) engine) then
    unsupported
      (Printf.sprintf "Compact.partition: engine %s is illegal on ISA %s"
         (name engine) isa_name);
  reset_rows sel n;
  reset_rows rest n;
  if n > 0 then begin
    (Vm.stats vm).Stats.compaction_calls <- (Vm.stats vm).Stats.compaction_calls + 1;
    match engine with
    | Sequential -> sequential ~vm ~n ~pred ~sel ~rest
    | Full_table ->
        if width > 16 then
          unsupported "Compact.partition: full table limited to width 16";
        chunked ~vm ~width ~sub_width:width (Shuffle (shuffle_table width)) ~n ~pred ~sel
          ~rest
    | Factorized { sub_width } ->
        check_sub_width engine ~isa:isa_name ~width ~sub_width;
        chunked ~vm ~width ~sub_width (Shuffle (shuffle_table sub_width)) ~n ~pred ~sel
          ~rest
    | Prefix_scatter { sub_width } ->
        check_sub_width engine ~isa:isa_name ~width ~sub_width;
        chunked ~vm ~width ~sub_width (Prefix (prefix_table sub_width)) ~n ~pred ~sel
          ~rest
  end

let partition ~vm ~engine ~width ~n ~pred =
  let sel = rows () and rest = rows () in
  partition_into ~vm ~engine ~width ~n ~pred ~sel ~rest;
  (Array.sub sel.idx 0 sel.len, Array.sub rest.idx 0 rest.len)
