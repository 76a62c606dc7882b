exception Oom of { live : int; limit : int }

let log_src = Logs.Src.create "vc.engine" ~doc:"Blocked execution engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type ctx = {
  m : Measure.t;
  spec : Spec.t;
  reducers : Vc_lang.Reducer.set;
  width : int;
  elem : int;
  nfields : int;
  compact : Vc_simd.Compact.engine;
  max_block : int;  (** breadth-first switches to blocked at this size *)
  reexp_threshold : int;  (** blocked hands blocks <= this back to bfs *)
  reexpand : bool;
  max_live : int;
  max_tasks : int;
  cutoff : int;  (** blocks at most this size run their subtrees scalar *)
  tel : Telemetry.t;
  site_frames : string array;  (** preformatted "spawn:siteN" span names *)
  faults : Fault.plan;
  budgets : Supervisor.budgets;  (** checked per level (typed errors) *)
  wall_start : float;
  mutable live : int;  (** current live threads, for space accounting *)
  mutable executed : int;
  (* Reusable blocks: ping-pong pair per breadth-first run depth parity is
     not enough because re-expansion nests; instead one reusable block per
     (tree depth, slot), in [pool.(depth).(slot)] ([[||]] = depth not yet
     reached).  Slot [0..e-1] holds blocked execution's per-site children;
     breadth-first "next" blocks use slot [e].  A block keeps its modeled
     addresses for the whole run but holds host columns only while its
     frames are live (see [retire]). *)
  mutable pool : Block.t option array array;
  store : Block.Store.t;  (** host columns of the pool's blocks *)
  (* The current level's base and recursive rows, refilled by every
     [process_level]: a level's rows are consumed (base cases run, children
     spawned) before the next level is processed. *)
  base_rows : Vc_simd.Compact.rows;
  rec_rows : Vc_simd.Compact.rows;
}

let isa ctx = ctx.m.Measure.machine.Vc_mem.Machine.isa
let store ctx = ctx.store

let modeled_cycles ctx =
  Vc_simd.Vm.issue_cycles ctx.m.Measure.vm
  +. Vc_mem.Hierarchy.penalty_cycles ctx.m.Measure.hier

(* Budgets are checked at every level boundary ({!Supervisor.check_budgets});
   the cycles reader is built once, so a check allocates nothing. *)
let cycles_reader = Some modeled_cycles

let budget_check ctx =
  Supervisor.check_budgets ctx.budgets ~tel:ctx.tel ~wall_start:ctx.wall_start
    ~live:ctx.live ~cycles:cycles_reader ctx

(* Attribution frames (consumed by Profile): execution phases nested
   under the benchmark's root span.  Spans always close before the
   scheduler recurses into the next level, so profile paths stay flat —
   benchmark -> phase -> spawn site — instead of growing with tree
   depth. *)
let frame_expand = "expand"
let frame_blocked = "blocked"
let frame_compact = "compact"
let frame_cutoff = "cutoff"
let frame_fallback = "fallback"

let note_fault ctx (e : Vc_error.t) =
  Log.info (fun m -> m "fault: %s" (Vc_error.to_string e));
  Telemetry.fault ctx.tel e

let pool_block ctx ~depth ~slot ~room =
  Fault.trip ctx.faults Fault.Alloc ~phase:Vc_error.Expand
    ~hint:Vc_error.Fallback_scalar
    ~detail:(fun () -> Printf.sprintf "block d%d-s%d (room %d)" depth slot room);
  if depth >= Array.length ctx.pool then begin
    let grown = Array.make (Int.max (depth + 1) (2 * Array.length ctx.pool)) [||] in
    Array.blit ctx.pool 0 grown 0 (Array.length ctx.pool);
    ctx.pool <- grown
  end;
  if Array.length ctx.pool.(depth) = 0 then
    ctx.pool.(depth) <- Array.make (ctx.spec.Spec.num_spawns + 1) None;
  let cells = ctx.pool.(depth) in
  let blk =
    match cells.(slot) with
    | Some blk -> blk
    | None ->
        Block.create
          ~label:(Printf.sprintf "blk-d%d-s%d" depth slot)
          ~store:ctx.store ctx.m.Measure.addr ~schema:ctx.spec.Spec.schema
          ~isa:(isa ctx) ~capacity:(Int.max room 16)
  in
  Block.clear blk;
  let fitted = Block.ensure_room blk ctx.m.Measure.addr ~extra:room in
  if fitted != blk || Option.is_none cells.(slot) then cells.(slot) <- Some fitted;
  fitted

(* Charge the packed vector loads ([write:false]) or stores of [count]
   frames of [blk] starting at row [from]: per field, one vector access
   per width-chunk. *)
let charge_rows ctx blk ~write ~from ~count =
  let vm = ctx.m.Measure.vm in
  for f = 0 to ctx.nfields - 1 do
    Vc_simd.Vm.column vm ~write
      ~addr:(Block.field_addr blk ~field:f ~row:from)
      ~n:count ~width:ctx.width ~lane_bytes:ctx.elem
  done

let count_tasks ctx n =
  ctx.executed <- ctx.executed + n;
  if ctx.executed > ctx.max_tasks then
    Vc_error.budget ~phase:Vc_error.Execute Vc_error.Task_budget
      ~detail:"engine task limit" ~limit:(float_of_int ctx.max_tasks)
      ~actual:(float_of_int ctx.executed) ()

(* Build the recursive scalar executor over a pair of scratch blocks:
   [go ~count frame d] runs [frame]'s whole subtree sequentially with
   scalar instructions, as a conventional runtime does below the task
   cut-off.  Tasks count as epilog (never vectorized).  [count:false]
   skips the root's task accounting for quarantine recovery, where the
   faulted vectorized level already ran [count_tasks]/[tasks_at_level]
   for the frame; descendants are always counted. *)
let scalar_executor ctx =
  let vm = ctx.m.Measure.vm in
  let insns = ctx.spec.Spec.insns in
  let stats = Vc_simd.Vm.stats vm in
  let scratch_parent =
    Block.create ~label:"scalar-parent" ctx.m.Measure.addr
      ~schema:ctx.spec.Spec.schema ~isa:(isa ctx) ~capacity:1
  in
  let scratch_child =
    Block.create ~label:"scalar-child" ctx.m.Measure.addr
      ~schema:ctx.spec.Spec.schema ~isa:(isa ctx)
      ~capacity:(Int.max 1 ctx.spec.Spec.num_spawns)
  in
  let rec go ~count frame d =
    if count then begin
      count_tasks ctx 1;
      Metrics.tasks_at_level ctx.m.Measure.metrics ~depth:d ~n:1
    end;
    stats.Vc_simd.Stats.epilog_tasks <- stats.Vc_simd.Stats.epilog_tasks + 1;
    Vc_simd.Vm.scalar_ops vm
      (insns.Spec.check_insns + insns.Spec.scalar_insns + (2 * ctx.nfields) + 2);
    Block.clear scratch_parent;
    Block.push scratch_parent frame;
    if ctx.spec.Spec.is_base scratch_parent 0 then begin
      Metrics.base_at_level ctx.m.Measure.metrics ~depth:d ~n:1;
      Vc_simd.Vm.scalar_ops vm insns.Spec.base_insns;
      ctx.spec.Spec.exec_base ctx.reducers scratch_parent 0
    end
    else begin
      Vc_simd.Vm.scalar_ops vm insns.Spec.inductive_insns;
      Block.clear scratch_child;
      for site = 0 to ctx.spec.Spec.num_spawns - 1 do
        Vc_simd.Vm.scalar_ops vm insns.Spec.spawn_insns;
        ignore (ctx.spec.Spec.spawn scratch_parent 0 ~site ~dst:scratch_child : bool)
      done;
      let children = List.init (Block.size scratch_child) (Block.frame scratch_child) in
      List.iter (fun child -> go ~count:true child (d + 1)) children
    end
  in
  go

(* [blk]'s threads are done (their children, if any, are spawned): they
   leave [live] and the block gives its host columns back to the store. *)
let retire ctx blk =
  ctx.live <- ctx.live - Block.size blk;
  Block.release blk

(* Task cut-off path: every thread of [blk] executes its whole subtree
   sequentially. *)
let sequential_subtree ctx blk ~depth =
  Telemetry.with_span ctx.tel frame_cutoff @@ fun () ->
  Telemetry.emit ctx.tel
    (Telemetry.Level { phase = Telemetry.Cutoff; depth; size = Block.size blk; base = 0 });
  let go = scalar_executor ctx in
  for row = 0 to Block.size blk - 1 do
    go ~count:true (Block.frame blk row) depth
  done;
  retire ctx blk

(* Quarantine recovery: re-run each listed frame's whole subtree on the
   scalar path after a fault on the vectorized one.  [count_roots:false]
   when the faulted level already accounted the roots' task counts (the
   compaction trip fires after the level prologue; allocation trips fire
   after [process_level] returned); their base/inductive work still runs
   here, so reducer values match a fault-free run exactly. *)
let scalar_subtrees ctx frames ~depth ~count_roots =
  match frames with
  | [] -> ()
  | _ :: _ ->
      Telemetry.with_span ctx.tel frame_fallback @@ fun () ->
      Telemetry.emit ctx.tel
        (Telemetry.Fallback { depth; size = List.length frames });
      let go = scalar_executor ctx in
      List.iter (fun frame -> go ~count:count_roots frame depth) frames

(* Is [exn] a fault this engine may absorb by falling back to scalar
   execution?  Budget violations and abort-hinted faults never are. *)
let recoverable exn =
  match exn with
  | Vc_error.Error
      { Vc_error.kind = Vc_error.Fault { hint = Vc_error.Fallback_scalar; _ }; _ }
    ->
      true
  | _ -> false

(* Process the tasks of one block at one tree level: vectorized isBase
   check, stream compaction into base/recursive groups, vectorized base
   execution.  Returns the recursive rows.  Common to both execution
   strategies (the foreach bodies of Figs. 3 and 4(b)). *)
(* Fixed scalar cost of entering one transformed method on one block:
   call, block allocation/reset, loop setup - independent of block size,
   so it is what amortizes away as blocks grow (paper §5 "stack management
   overhead reduces with increasing block size"). *)
let level_overhead = 24

(* Per spawn-site bookkeeping: next-block pointer setup and the size
   check. *)
let site_overhead = 8

let process_level ctx blk ~depth ~phase =
  let n = Block.size blk in
  let vm = ctx.m.Measure.vm in
  let insns = ctx.spec.Spec.insns in
  (* Telemetry prologue: snapshot the counters so the level's events can
     carry deltas.  All of it is skipped when no sink is attached. *)
  let tel_on = Telemetry.enabled ctx.tel in
  let t0 = if tel_on then Telemetry.now ctx.tel else 0.0 in
  let vm0 = if tel_on then Some (Vc_simd.Vm.snapshot vm) else None in
  let hier0 =
    if tel_on then Some (Vc_mem.Hierarchy.level_stats ctx.m.Measure.hier) else None
  in
  count_tasks ctx n;
  Vc_simd.Vm.scalar_ops vm level_overhead;
  Metrics.tasks_at_level ctx.m.Measure.metrics ~depth ~n;
  Metrics.occupancy_sample ctx.m.Measure.metrics ~n ~width:ctx.width;
  Metrics.live_threads ctx.m.Measure.metrics ctx.live;
  charge_rows ctx blk ~write:false ~from:0 ~count:n;
  Vc_simd.Vm.batch vm ~width:ctx.width ~n ~insns_per_task:insns.Spec.check_insns ();
  Metrics.kernel_ops ctx.m.Measure.metrics (n * insns.Spec.check_insns);
  (* data-dependent work the compiler cannot vectorize stays scalar *)
  Vc_simd.Vm.scalar_ops vm (n * insns.Spec.scalar_insns);
  (* The compaction trip fires after the level prologue ([count_tasks],
     level metrics) but before any base work, so on a fault the whole
     block is exactly "task-counted but not yet executed": quarantine it
     and run every frame's subtree scalar, with [count_roots:false]. *)
  let base_rows = ctx.base_rows and rec_rows = ctx.rec_rows in
  let quarantine err =
    note_fault ctx err;
    base_rows.len <- 0;
    rec_rows.len <- 0;
    scalar_subtrees ctx (List.init n (Block.frame blk)) ~depth ~count_roots:false
  in
  (* the compact span closes (via Fun.protect) before any quarantine
     runs, so fallback work attributes under the phase frame, not under
     "compact" *)
  let partition () =
    Telemetry.with_span ctx.tel frame_compact @@ fun () ->
    Fault.trip ctx.faults Fault.Compact ~phase:Vc_error.Execute
      ~hint:Vc_error.Fallback_scalar
      ~detail:(fun () -> Printf.sprintf "partition of %d frames at depth %d" n depth);
    Vc_simd.Compact.partition_into ~vm ~engine:ctx.compact ~width:ctx.width ~n
      ~pred:(fun row -> ctx.spec.Spec.is_base blk row)
      ~sel:base_rows ~rest:rec_rows
  in
  (match partition () with
  | () -> ()
  | exception Vc_simd.Compact.Unsupported { engine; isa; reason } ->
      (* an unsupported engine/ISA pairing is a compaction fault too:
         it degrades to the scalar path *)
      let err =
        {
          Vc_error.kind =
            Vc_error.Fault
              { site = Vc_error.Compaction; hint = Vc_error.Fallback_scalar };
          phase = Vc_error.Execute;
          detail =
            Printf.sprintf "engine %s unsupported on %s: %s" engine isa reason;
        }
      in
      quarantine err
  | exception (Vc_error.Error err as exn) when recoverable exn ->
      quarantine err);
  let nb = base_rows.len in
  Metrics.base_at_level ctx.m.Measure.metrics ~depth ~n:nb;
  (* base group: unmasked vector execution after compaction *)
  Vc_simd.Vm.batch vm ~classify:true ~width:ctx.width ~n:nb
    ~insns_per_task:insns.Spec.base_insns ();
  Metrics.kernel_ops ctx.m.Measure.metrics (nb * insns.Spec.base_insns);
  for i = 0 to nb - 1 do
    ctx.spec.Spec.exec_base ctx.reducers blk base_rows.idx.(i)
  done;
  (* recursive group: shared inductive work *)
  let nr = rec_rows.len in
  Vc_simd.Vm.batch vm ~classify:true ~width:ctx.width ~n:nr
    ~insns_per_task:insns.Spec.inductive_insns ();
  Metrics.kernel_ops ctx.m.Measure.metrics (nr * insns.Spec.inductive_insns);
  if tel_on then begin
    let t1 = Telemetry.now ctx.tel in
    let dur = t1 -. t0 in
    Telemetry.emit ~ts:t0 ~dur ctx.tel
      (Telemetry.Level { phase; depth; size = n; base = nb });
    (match vm0 with
    | Some before ->
        let d = Vc_simd.Stats.diff (Vc_simd.Vm.snapshot vm) before in
        if d.Vc_simd.Stats.compaction_calls > 0 then
          Telemetry.emit ~ts:t0 ~dur ctx.tel
            (Telemetry.Compaction
               {
                 engine = Vc_simd.Compact.name ctx.compact;
                 width = ctx.width;
                 n;
                 passes = d.Vc_simd.Stats.compaction_passes;
               })
    | None -> ());
    match hier0 with
    | Some since ->
        List.iter
          (fun (label, accesses, misses) ->
            if accesses > 0 then
              Telemetry.emit ~ts:t1 ctx.tel
                (Telemetry.Cache { level = label; depth; accesses; misses }))
          (Vc_mem.Hierarchy.delta ~since
             (Vc_mem.Hierarchy.level_stats ctx.m.Measure.hier))
    | None -> ()
  end;
  nr

(* Spawn site [site]'s children of the level's recursive rows into [dst];
   returns how many spawned.  Site-major order groups similar children
   (§4.2). *)
let spawn_site ctx blk ~site ~dst =
  let vm = ctx.m.Measure.vm in
  let insns = ctx.spec.Spec.insns in
  let rec_rows = ctx.rec_rows in
  let nr = rec_rows.len in
  Vc_simd.Vm.scalar_ops vm site_overhead;
  Vc_simd.Vm.batch vm ~width:ctx.width ~n:nr ~insns_per_task:insns.Spec.spawn_insns ();
  Metrics.kernel_ops ctx.m.Measure.metrics (nr * insns.Spec.spawn_insns);
  let before = Block.size dst in
  for i = 0 to nr - 1 do
    ignore (ctx.spec.Spec.spawn blk rec_rows.idx.(i) ~site ~dst : bool)
  done;
  let pushed = Block.size dst - before in
  charge_rows ctx dst ~write:true ~from:before ~count:pushed;
  pushed

(* The frames of the level's recursive rows, for quarantine. *)
let rec_frames ctx blk =
  List.init ctx.rec_rows.len (fun i -> Block.frame blk ctx.rec_rows.idx.(i))

let check_live ctx =
  if ctx.live > ctx.max_live then raise (Oom { live = ctx.live; limit = ctx.max_live })

(* Live-thread accounting rule: whoever fills a block adds its size to
   [ctx.live]; the function that receives the block as input subtracts it
   exactly once, as soon as its threads are done (after their children are
   spawned), with [retire], which also frees the block's host columns.  BFS space then peaks at the widest level; blocked DFS space
   is the O(T*D) sum of the blocks along the active path plus their
   sibling site blocks (§4.2). *)

(* One breadth-first level (the loop body of Fig. 3): process [blk],
   spawn its recursive rows site-major into the pooled next-level block.
   Returns [None] when the subtree finished here — no recursive rows, or
   an allocation fault quarantined them onto the scalar path.  The caller
   decides what the returned level continues as (breadth-first, blocked,
   or a frontier handed to another worker).  [reexp_from] carries the
   depth of the re-expansion trigger so the first expanded level can
   report its growth factor (Fig. 15). *)
let bfs_step ctx blk ~depth ~reexp_from =
  (* The whole level — compaction, base execution, spawning — runs
     under an "expand" span; whatever happens to the next level happens
     after it closes, so the span covers exactly one level's work. *)
  Telemetry.with_span ctx.tel frame_expand @@ fun () ->
  let nr = process_level ctx blk ~depth ~phase:Telemetry.Bfs in
  if nr = 0 then begin
    retire ctx blk;
    None
  end
  else begin
    let e = ctx.spec.Spec.num_spawns in
    match
      let next = pool_block ctx ~depth:(depth + 1) ~slot:e ~room:(nr * e) in
      (* Site-major enqueueing: all site-i children before any site-(i+1)
         children, preserving spawn-id grouping (§5). *)
      for site = 0 to e - 1 do
        Telemetry.with_span ctx.tel ctx.site_frames.(site) (fun () ->
            ignore (spawn_site ctx blk ~site ~dst:next : int))
      done;
      next
    with
    | exception (Vc_error.Error err as exn) when recoverable exn ->
        (* the next-level block never materialized (the allocation trip
           fires before the pool mutates anything): the recursive frames
           are accounted but their subtrees are not — run them scalar *)
        note_fault ctx err;
        scalar_subtrees ctx (rec_frames ctx blk) ~depth ~count_roots:false;
        retire ctx blk;
        None
    | next ->
        ctx.live <- ctx.live + Block.size next;
        Metrics.live_threads ctx.m.Measure.metrics ctx.live;
        check_live ctx;
        (match reexp_from with
        | Some trigger_depth ->
            let factor =
              float_of_int (Block.size next)
              /. float_of_int (Int.max 1 (Block.size blk))
            in
            Metrics.reexpansion_growth ctx.m.Measure.metrics ~depth:trigger_depth
              ~factor
        | None -> ());
        retire ctx blk;
        Some next
  end

(* A breadth-first level of [target] frames or more is not stepped: it
   leaves the context as a frontier (its frames and depth), which
   {!execute_frames} returns.  Raised, not returned, so a re-expansion's
   [bfs] returns a bare depth and allocates nothing. *)
exception Frontier of int array list * int

(* Breadth-first execution (Fig. 3 / Fig. 6 bfs_foo).  [blk] is consumed.
   When the next level reaches [max_block], switch to blocked
   depth-first.  Returns the depth of the last level reached. *)
let rec bfs ctx blk ~depth ~reexp_from ~target =
  budget_check ctx;
  let n = Block.size blk in
  if n = 0 then depth
  else if n >= target then begin
    let frames = List.init n (Block.frame blk) in
    (* the frontier's frames become other contexts' roots, which account
       them from here on *)
    retire ctx blk;
    raise_notrace (Frontier (frames, depth))
  end
  else
    match bfs_step ctx blk ~depth ~reexp_from with
    | None -> depth
    | Some next ->
        if Block.size next >= ctx.max_block then begin
          Telemetry.emit ctx.tel
            (Telemetry.Switch { depth = depth + 1; size = Block.size next });
          blocked ctx next ~depth:(depth + 1);
          depth + 1
        end
        else bfs ctx next ~depth:(depth + 1) ~reexp_from:None ~target

(* Blocked depth-first execution (Fig. 4(b) / Fig. 6 blocked_foo).  One
   child block per spawn site; each is executed to completion before the
   next, re-expanding when it has shrunk below the threshold. *)
and blocked ctx blk ~depth =
  budget_check ctx;
  if Block.size blk = 0 then ()
  else if Block.size blk <= ctx.cutoff then sequential_subtree ctx blk ~depth
  else
    (* Like bfs: the level's own work runs under a "blocked" span that
       closes before any child block is descended into. *)
    let children =
      Telemetry.with_span ctx.tel frame_blocked @@ fun () ->
      let nr = process_level ctx blk ~depth ~phase:Telemetry.Blocked in
      if nr = 0 then begin
        retire ctx blk;
        [||]
      end
      else begin
        let e = ctx.spec.Spec.num_spawns in
        let spawned = ref [] in
        match
          for site = 0 to e - 1 do
            Telemetry.with_span ctx.tel ctx.site_frames.(site) (fun () ->
                let dst = pool_block ctx ~depth:(depth + 1) ~slot:site ~room:nr in
                ignore (spawn_site ctx blk ~site ~dst : int);
                ctx.live <- ctx.live + Block.size dst;
                spawned := dst :: !spawned)
          done
        with
        | exception (Vc_error.Error err as exn) when recoverable exn ->
            (* roll back the sites spawned before the fault (their frames
               were never executed) and quarantine the whole recursive
               group: each rec frame's subtree re-runs scalar exactly once *)
            note_fault ctx err;
            List.iter (retire ctx) !spawned;
            scalar_subtrees ctx (rec_frames ctx blk) ~depth ~count_roots:false;
            retire ctx blk;
            [||]
        | () ->
            let children = Array.of_list (List.rev !spawned) in
            Metrics.live_threads ctx.m.Measure.metrics ctx.live;
            check_live ctx;
            retire ctx blk;
            children
      end
    in
    Array.iter
      (fun child ->
          if Block.size child > 0 then
            if Block.size child <= ctx.cutoff then
              (* conventional task cut-off: sequentialize small subtrees
                 instead of re-expanding them *)
              sequential_subtree ctx child ~depth:(depth + 1)
            else if ctx.reexpand && Block.size child < ctx.reexp_threshold then begin
              (* strictly below the threshold: Fig. 6 writes [size >
                 threshold] for the blocked branch, but with both
                 thresholds T_max/e and power-of-two block sizes a block
                 can sit exactly on the boundary and bounce between the
                 strategies forever doing no useful re-expansion (the
                 paper's knapsack observation requires equality to stay
                 blocked) *)
              Metrics.reexpansion ctx.m.Measure.metrics ~depth:(depth + 1)
                ~before:(Block.size child);
              Telemetry.emit ctx.tel
                (Telemetry.Reexpand
                   {
                     depth = depth + 1;
                     size = Block.size child;
                     shrink =
                       float_of_int (Block.size child)
                       /. float_of_int (Int.max 1 ctx.reexp_threshold);
                   });
              ignore
                (bfs ctx child ~depth:(depth + 1) ~reexp_from:(Some (depth + 1))
                   ~target:max_int
                  : int)
            end
            else blocked ctx child ~depth:(depth + 1))
      children

(* Execute [roots] as sibling frames at tree depth [depth] under the
   context's configured strategy: pool a root block, then dispatch to
   breadth-first or blocked execution.  This is {!run}'s body (minus the
   root attribution span), the domain scheduler's frontier expansion (a
   [Bfs_only] context with a [target]) and its per-chunk entry point (a
   frontier slice at the frontier depth).  Returns the depth of the last
   level reached, or raises [Frontier]. *)
let run_frames ctx ~roots ~depth ~target =
  match
    pool_block ctx ~depth ~slot:ctx.spec.Spec.num_spawns
      ~room:(List.length roots)
  with
  | exception (Vc_error.Error err as exn) when recoverable exn ->
      (* root block allocation faulted before anything was accounted:
         the entire subtree degrades to the scalar path *)
      note_fault ctx err;
      scalar_subtrees ctx roots ~depth ~count_roots:true;
      depth
  | root ->
      List.iter (fun frame -> Block.push root frame) roots;
      charge_rows ctx root ~write:true ~from:0 ~count:(Block.size root);
      ctx.live <- ctx.live + Block.size root;
      if Block.size root >= ctx.max_block then begin
        Telemetry.emit ctx.tel
          (Telemetry.Switch { depth; size = Block.size root });
        blocked ctx root ~depth;
        depth
      end
      else bfs ctx root ~depth ~reexp_from:None ~target

let execute_frames ctx ~roots ~depth ~target =
  match run_frames ctx ~roots ~depth ~target with
  | last -> ([], last)
  | exception Frontier (frames, at) -> (frames, at)

let make_ctx ?compact ?(max_tasks = 200_000_000) ?(cutoff = 0) ?telemetry
    ?(faults = Fault.none) ?(budgets = Supervisor.no_budgets)
    ~(spec : Spec.t) ~(machine : Vc_mem.Machine.t)
    ~(strategy : Policy.strategy) () =
  let m = Measure.create machine in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  (* Event timestamps are deterministic modeled time, not wall clock. *)
  Telemetry.set_clock tel (fun () ->
      Vc_simd.Vm.issue_cycles m.Measure.vm
      +. Vc_mem.Hierarchy.penalty_cycles m.Measure.hier);
  let width =
    Vc_simd.Isa.lanes machine.Vc_mem.Machine.isa (Schema.lane_kind spec.Spec.schema)
  in
  let compact =
    match compact with
    | Some c -> c
    | None -> Vc_simd.Compact.default_for machine.Vc_mem.Machine.isa ~width
  in
  let max_block =
    match strategy with
    | Policy.Bfs_only -> max_int
    | Policy.Hybrid { max_block; _ } -> max_block
  in
  let reexpand =
    match strategy with
    | Policy.Bfs_only -> false
    | Policy.Hybrid { reexpand; _ } -> reexpand
  in
  let wall_start = Unix.gettimeofday () in
  {
    m;
    spec;
    reducers = Spec.make_reducers spec;
    width;
    elem = Schema.elem_bytes spec.Spec.schema ~isa:machine.Vc_mem.Machine.isa;
    nfields = Schema.num_fields spec.Spec.schema;
    compact;
    max_block;
    reexp_threshold = max_block;
    reexpand;
    max_live = machine.Vc_mem.Machine.max_live_threads;
    max_tasks;
    cutoff;
    tel;
    site_frames =
      Array.init spec.Spec.num_spawns (fun i -> "spawn:site" ^ string_of_int i);
    faults;
    budgets;
    wall_start;
    live = 0;
    executed = 0;
    pool = [||];
    store = Block.Store.create ();
    base_rows = Vc_simd.Compact.rows ();
    rec_rows = Vc_simd.Compact.rows ();
  }

let report_of ctx ~strategy ~wall_seconds =
  Measure.report ctx.m ~benchmark:ctx.spec.Spec.name ~strategy
    ~reducers:(Vc_lang.Reducer.values ctx.reducers) ~wall_seconds

let run ?compact ?max_tasks ?cutoff ?(warm = false) ?telemetry
    ?faults ?budgets ~(spec : Spec.t) ~(machine : Vc_mem.Machine.t)
    ~(strategy : Policy.strategy) () =
  let ctx =
    make_ctx ?compact ?max_tasks ?cutoff ?telemetry ?faults ?budgets
      ~spec ~machine ~strategy ()
  in
  let strategy_name = Policy.name strategy ^ if warm then "+warm" else "" in
  Log.debug (fun m ->
      m "run %s on %s: %s, width %d, compaction %s" spec.Spec.name
        machine.Vc_mem.Machine.name (Policy.describe strategy) ctx.width
        (Vc_simd.Compact.name ctx.compact));
  (* Root attribution span: opened per pass, closed when the pass
     completes (its close timestamp is the very clock reading
     [Measure.report] turns into [Report.cycles], so profiler totals
     reconcile bit-for-bit).  The warm pass's unclosed root span is
     discarded with everything else by [Telemetry.clear]. *)
  let root_frame = spec.Spec.name in
  let execute () =
    Telemetry.emit ctx.tel (Telemetry.Span_open { frame = root_frame });
    ignore (run_frames ctx ~roots:spec.Spec.roots ~depth:0 ~target:max_int : int)
  in
  match
    if warm then begin
      (* warm-up pass: same blocks (the pool reuses addresses), costs and
         reductions discarded *)
      execute ();
      Vc_simd.Stats.reset (Vc_simd.Vm.stats ctx.m.Measure.vm);
      Vc_mem.Hierarchy.reset_counters ctx.m.Measure.hier;
      Vc_lang.Reducer.reset_set ctx.reducers;
      Metrics.reset ctx.m.Measure.metrics;
      Telemetry.clear ctx.tel;
      ctx.live <- 0;
      ctx.executed <- 0
    end;
    execute ()
  with
  | () ->
      let wall = Unix.gettimeofday () -. ctx.wall_start in
      Telemetry.emit ctx.tel (Telemetry.Span_close { frame = root_frame });
      Telemetry.flush ctx.tel;
      Measure.report ctx.m ~benchmark:spec.Spec.name ~strategy:strategy_name
        ~reducers:(Vc_lang.Reducer.values ctx.reducers) ~wall_seconds:wall
  | exception Oom { live; limit } ->
      Log.info (fun m ->
          m "%s/%s/%s ran out of memory (%d live threads > %d limit)"
            spec.Spec.name machine.Vc_mem.Machine.name strategy_name live limit);
      Telemetry.emit ctx.tel (Telemetry.Span_close { frame = root_frame });
      Telemetry.flush ctx.tel;
      Report.oom_placeholder ~benchmark:spec.Spec.name
        ~machine:machine.Vc_mem.Machine.name ~strategy:strategy_name
