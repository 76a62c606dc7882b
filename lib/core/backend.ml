(* Execution backends over the blocked IR (ROADMAP item 1).

   A backend turns a program source — the blocked IR of a DSL program, or
   a native [Spec.t] — into whole-tree results using the Fig. 6 schedule
   (bfs levels, switch to per-site blocked execution at [max_block],
   re-expansion of shrunken blocks), with no cost model: these run at raw
   OCaml speed and report wall-clock throughput.

   The scheduler is written once, generic over a [stepper] — the object
   that knows how to execute one whole level — as one loop over an
   explicit stack of pending levels: pop a level, check budgets, trip its
   fault site, step it, push its children (a blocked level's per-site
   children in reverse, so they still run depth-first in site order).
   Domains mode's frontier expansion is the same loop's first phase.
   Three steppers exist:

   - the SoA compiled stepper ({!Codegen.Soa}): per-spawn-site specialized
     kernels over unboxed structure-of-arrays frames — the "compiled"
     backend for IR sources;
   - the closure stepper ({!Blocked_interp}): per-thread closure dispatch
     over the same SoA levels — the "blocked" backend for IR sources;
   - the native stepper: [Spec.t] callbacks over ThreadBlocks — both
     backends use it for native sources (a native spec is already
     compiled OCaml; there is nothing further to specialize).

   IR levels are {!Codegen.Soa.buf} segments whose columns come from one
   process-wide level store and go back to it as soon as a level has been
   stepped, so a run holds only its live frontier and a steady-state run
   (one after another, or on fresh worker domains) allocates no level
   storage — the paper's ThreadBlock reuse (§5).

   A level step is also the fault recovery: a level whose fault site
   trips is still intact, so the scheduler re-runs it through the same
   stepper with the site disarmed for its subtree.

   Compiled-vs-blocked is therefore a pure dispatch comparison with
   bit-equal results: both run over the same levels and level store, under
   the same scheduler, budgets, fault sites and chunked-domains driver,
   and the differential suite holds all six result fields equal.

   Structured after Bombyx's backend split (PAPERS.md): the IR stays
   fixed, a future C-stub/FPGA-style cost backend is a third [t] value,
   not a rewrite. *)

type result = {
  reducers : (string * int) list;
  tasks : int;
  base_tasks : int;
  max_depth : int;
  switches : int;
  reexpansions : int;
  wall_seconds : float;
}

let equal a b = { a with wall_seconds = 0.0 } = { b with wall_seconds = 0.0 }

type source = Ir of Blocked_ast.t | Native of Spec.t

type opts = {
  strategy : Policy.strategy;
  max_tasks : int;
  telemetry : Telemetry.t option;
  faults : Fault.plan;
  budgets : Supervisor.budgets;
  domains : int option;
}

let default_opts =
  {
    strategy = Policy.Hybrid { max_block = 256; reexpand = true };
    max_tasks = 20_000_000;
    telemetry = None;
    faults = Fault.none;
    budgets = Supervisor.no_budgets;
    domains = None;
  }

type t = {
  name : string;
  description : string;
  exec : opts -> source -> int array list -> result;
}

(* ------------------------------------------------------------------ *)
(* The level-stepper interface the generic scheduler drives. *)

type 'lvl stepper = {
  size : 'lvl -> int;
  new_level : unit -> 'lvl;
  clear : 'lvl -> unit;
  of_frames : int array list -> 'lvl;
  frames : 'lvl -> int array list;
  step : src:'lvl -> blocked:bool -> next:'lvl -> sites:'lvl array -> int;
  num_spawns : int;
}

(* Both IR steppers (compiled kernels and the closure interpreter) run
   over the same SoA levels, so they share one set of level operations.
   Every level takes its columns from the process-wide level store. *)
let ir_stepper (inst : Codegen.Soa.inst) : Codegen.Soa.buf stepper =
  let nfields = inst.Codegen.Soa.nparams in
  {
    size = Codegen.Soa.size;
    new_level = (fun () -> Codegen.Soa.make_buf ~nfields);
    clear = Codegen.Soa.clear;
    of_frames = Codegen.Soa.of_frames ~nfields;
    frames = Codegen.Soa.frames;
    step = inst.Codegen.Soa.step;
    num_spawns = inst.Codegen.Soa.num_spawns;
  }

(* Native levels are ThreadBlocks so the spec callbacks run unchanged.
   The blocks live outside the cost model: addresses come from a private
   allocator and the ISA only sizes the modeled layout. *)
type nlevel = { mutable blk : Block.t }

let native_stepper (spec : Spec.t) ~(reducers : Vc_lang.Reducer.set) :
    nlevel stepper =
  let addr = Addr.create () in
  let isa = Vc_simd.Isa.sse42 in
  let schema = spec.Spec.schema in
  let e = spec.Spec.num_spawns in
  let create cap =
    { blk = Block.create ~label:"backend" addr ~schema ~isa ~capacity:(max 1 cap) }
  in
  let step ~src ~blocked ~next ~sites =
    let blk = src.blk in
    let n = Block.size blk in
    let nbase = ref 0 in
    if blocked then begin
      Array.iter (fun l -> l.blk <- Block.ensure_room l.blk addr ~extra:n) sites;
      for r = 0 to n - 1 do
        if spec.Spec.is_base blk r then begin
          incr nbase;
          spec.Spec.exec_base reducers blk r
        end
        else
          for site = 0 to e - 1 do
            ignore (spec.Spec.spawn blk r ~site ~dst:sites.(site).blk : bool)
          done
      done
    end
    else begin
      next.blk <- Block.ensure_room next.blk addr ~extra:(n * e);
      for r = 0 to n - 1 do
        if spec.Spec.is_base blk r then begin
          incr nbase;
          spec.Spec.exec_base reducers blk r
        end
        else
          for site = 0 to e - 1 do
            ignore (spec.Spec.spawn blk r ~site ~dst:next.blk : bool)
          done
      done
    end;
    !nbase
  in
  {
    size = (fun l -> Block.size l.blk);
    new_level = (fun () -> create 1);
    clear = (fun l -> Block.clear l.blk);
    of_frames =
      (fun fs ->
        let l = create (List.length fs) in
        l.blk <- Block.ensure_room l.blk addr ~extra:(List.length fs);
        List.iter (Block.push l.blk) fs;
        l);
    frames = (fun l -> List.init (Block.size l.blk) (Block.frame l.blk));
    step;
    num_spawns = max 1 e;
  }

(* ------------------------------------------------------------------ *)
(* The generic scheduler: Fig. 6's switch / re-expansion decisions plus
   cooperative budgets and per-level fault recovery, over whole-level
   steps, driven by one explicit stack of pending levels. *)

type cstate = {
  mutable tasks : int;
  mutable base_tasks : int;
  mutable max_depth : int;
  mutable switches : int;
  mutable reexpansions : int;
  mutable live : int;
}

let new_cstate () =
  {
    tasks = 0;
    base_tasks = 0;
    max_depth = 0;
    switches = 0;
    reexpansions = 0;
    live = 0;
  }

(* A stack entry is a pending level.  Its phase is decided when it is
   popped, from the phase that produced it: a root or bfs child switches
   to blocked at [max_block] (the engine's root rule included), a blocked
   site's level below it re-expands. *)
type kind = Of_bfs | Of_blocked

type 'l entry = {
  mutable lvl : 'l;
  mutable depth : int;
  mutable kind : kind;
  mutable armed : bool;
}

(* Run the tree below [roots] (at [depth0]) depth-first over whole levels.
   The loop stops early at the first popped level holding [target] frames
   or more, without stepping it, and returns that level's frames and
   depth: domains mode expands its frontier this way under
   [Policy.Bfs_only].  A run to completion returns [([], depth0)]. *)
let run_tree (type l) (st : l stepper) ~tel ~faults ~strategy
    ~max_tasks ~wall_start ~(budgets : Supervisor.budgets) ~label ~target
    (s : cstate) roots depth0 =
  let max_block, reexpand =
    match (strategy : Policy.strategy) with
    | Policy.Bfs_only -> (max_int, false)
    | Policy.Hybrid { max_block; reexpand } -> (max_block, reexpand)
  in
  let e = st.num_spawns in
  let check_tasks n =
    if s.tasks + n > max_tasks then
      Vc_error.budget ~phase:Vc_error.Execute Vc_error.Task_budget
        ~detail:"backend task limit"
        ~limit:(float_of_int max_tasks)
        ~actual:(float_of_int (s.tasks + n))
        ()
  in
  (* Levels are released as soon as they have been stepped (or come back
     empty): [clear] hands an IR level's columns back to the level store
     at once, so the storage a run holds at any time is its unconsumed
     frontier.  The emptied headers are reused LIFO. *)
  let free = ref [] in
  let acquire () =
    match !free with
    | l :: rest ->
        free := rest;
        l
    | [] -> st.new_level ()
  in
  let release l =
    st.clear l;
    free := l :: !free
  in
  let dummy = st.new_level () in
  let sites = Array.make e dummy and next = [| dummy |] in
  (* The stack grows by doubling and its entries are overwritten in place,
     so a push allocates nothing. *)
  let blank _ = { lvl = dummy; depth = 0; kind = Of_bfs; armed = false } in
  let stack = ref (Array.init 16 blank) and top = ref 0 in
  let push lvl depth kind armed =
    if !top = Array.length !stack then
      stack := Array.append !stack (Array.init !top blank);
    let en = !stack.(!top) in
    en.lvl <- lvl;
    en.depth <- depth;
    en.kind <- kind;
    en.armed <- armed;
    incr top
  in
  (* A tripped level's subtree is disarmed, so at most one fallback span
     is open at a time: it closes when the stack is back at [span_floor],
     its height once the tripped level was popped ([-1]: none open). *)
  let span_floor = ref (-1) in
  let close_fallback () =
    if !span_floor >= 0 then begin
      span_floor := -1;
      Telemetry.emit tel (Telemetry.Span_close { frame = "fallback" })
    end
  in
  (* Faults trip per level, before any of its rows execute, so a tripped
     level is still intact: it re-runs through the same stepper with the
     fault site disarmed for its whole subtree.  The result is exactly the
     fault-free run's, and the plan sees the same call sequence as if the
     subtree had never been instrumented.  Domains mode is the exception:
     disarming (and the fallback span) ends at the frontier, and each chunk
     runs re-armed under its own {!Fault.split} plan. *)
  let tripped ~depth ~size =
    match
      Fault.trip faults Fault.Alloc ~phase:Vc_error.Execute
        ~hint:Vc_error.Fallback_scalar
        ~detail:(fun () ->
          Printf.sprintf "%s: level buffer at depth %d (%d frames)" label depth size)
    with
    | () -> false
    | exception Vc_error.Error err ->
        Telemetry.fault tel err;
        Telemetry.emit tel (Telemetry.Fallback { depth; size });
        true
  in
  let frontier = ref ([], depth0) in
  (* A level's [Switch]/[Reexpand] event is emitted when it is popped, not
     when it is pushed, so the events keep the depth-first order. *)
  let pop () =
    decr top;
    let en = !stack.(!top) in
    let src = en.lvl and depth = en.depth and kind = en.kind and armed = en.armed in
    let n = st.size src in
    if n >= target then begin
      (* Under [Bfs_only] no other level is pending. *)
      frontier := (st.frames src, depth);
      release src
    end
    else begin
      let blocked =
        match kind with
        | Of_bfs when n >= max_block ->
            s.switches <- s.switches + 1;
            Telemetry.emit tel (Telemetry.Switch { depth; size = n });
            true
        | Of_blocked when n < max_block && reexpand ->
            s.reexpansions <- s.reexpansions + 1;
            Telemetry.emit tel
              (Telemetry.Reexpand
                 {
                   depth;
                   size = n;
                   shrink = float_of_int n /. float_of_int (max 1 max_block);
                 });
            false
        | Of_bfs -> false
        | Of_blocked -> true
      in
      Supervisor.check_budgets budgets ~tel ~wall_start ~live:s.live ~cycles:None ();
      if depth > s.max_depth then s.max_depth <- depth;
      let armed =
        if armed && tripped ~depth ~size:n then begin
          Telemetry.emit tel (Telemetry.Span_open { frame = "fallback" });
          span_floor := !top;
          false
        end
        else armed
      in
      check_tasks n;
      s.tasks <- s.tasks + n;
      (* A blocked level fills one child level per spawn site, a bfs
         level one [next] level; the children are pushed in reverse. *)
      let outs = if blocked then sites else next in
      for i = 0 to Array.length outs - 1 do
        outs.(i) <- acquire ()
      done;
      let nbase =
        Telemetry.with_span tel (if blocked then "blocked" else "expand") @@ fun () ->
        st.step ~src ~blocked
          ~next:(if blocked then dummy else next.(0))
          ~sites:(if blocked then sites else [||])
      in
      release src;
      s.base_tasks <- s.base_tasks + nbase;
      let phase = if blocked then Telemetry.Blocked else Telemetry.Bfs in
      Telemetry.emit tel (Telemetry.Level { phase; depth; size = n; base = nbase });
      let total = Array.fold_left (fun acc l -> acc + st.size l) 0 outs in
      s.live <- s.live + total - n;
      let kind = if blocked then Of_blocked else Of_bfs in
      for i = Array.length outs - 1 downto 0 do
        let l = outs.(i) in
        if st.size l = 0 then release l else push l (depth + 1) kind armed
      done
    end
  in
  let root = st.of_frames roots in
  let n = st.size root in
  s.live <- s.live + n;
  if n > 0 then push root depth0 Of_bfs true;
  (try
     while !top > 0 do
       pop ();
       if !top = !span_floor then close_fallback ()
     done
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     close_fallback ();
     (* Hand every level back to the store: the pending ones, the popped
        one (it keeps its slot until a child is pushed) and its children
        in [sites]/[next].  Clearing twice is harmless. *)
     Array.iter (fun en -> st.clear en.lvl) !stack;
     Array.iter st.clear sites;
     st.clear next.(0);
     Printexc.raise_with_backtrace exn bt);
  !frontier


(* ------------------------------------------------------------------ *)
(* Execution drivers *)

let reducer_decls = function
  | Ir t ->
      List.map
        (fun r -> (r.Vc_lang.Ast.red_name, r.Vc_lang.Ast.red_op))
        t.Blocked_ast.source.Vc_lang.Ast.reducers
  | Native spec -> spec.Spec.reducers

let label_of = function
  | Ir t -> t.Blocked_ast.source.Vc_lang.Ast.mth.Vc_lang.Ast.name
  | Native spec -> spec.Spec.name

(* Build the stepper for a source against a concrete reducer set.
   [compiled] selects the SoA kernels over the closure interpreter for IR;
   native specs always use the native stepper (their callbacks are already
   compiled OCaml). *)
type any_stepper = Any : 'l stepper -> any_stepper

let stepper_of ~compiled source ~reducers =
  match source with
  | Ir t ->
      let instantiate =
        if compiled then Codegen.Soa.instantiate else Blocked_interp.instantiate
      in
      Any (ir_stepper (instantiate t ~reducers))
  | Native spec -> Any (native_stepper spec ~reducers)

let finish ~reducers (s : cstate) ~wall_start =
  {
    reducers = Vc_lang.Reducer.values reducers;
    tasks = s.tasks;
    base_tasks = s.base_tasks;
    max_depth = s.max_depth;
    switches = s.switches;
    reexpansions = s.reexpansions;
    wall_seconds = Unix.gettimeofday () -. wall_start;
  }

(* One exec path.  [domains = None] runs the whole tree in this context;
   [Some n] expands the frontier serially (bfs levels of [run_tree],
   under the same budgets and fault site), then runs it through
   {!Domain_sched.run_chunks} (fixed chunk deal, stealing workers, a hub
   and fault slice per chunk, lowest-index exception re-raised) and merges
   counters and reducers in chunk-index order, so results are bit-equal
   across domain counts. *)
let exec_backend ~compiled opts source roots =
  let tel =
    match opts.telemetry with Some t -> t | None -> Telemetry.create ()
  in
  let wall_start = Unix.gettimeofday () in
  let label = label_of source in
  let decls = reducer_decls source in
  let reducers = Vc_lang.Reducer.make_set decls in
  let (Any st) = stepper_of ~compiled source ~reducers in
  let s = new_cstate () in
  let run_tree ~strategy ~target st ~tel ~faults s roots depth =
    run_tree st ~tel ~faults ~strategy ~max_tasks:opts.max_tasks ~wall_start
      ~budgets:opts.budgets ~label ~target s roots depth
  in
  (match opts.domains with
  | None ->
      Telemetry.with_span tel label (fun () ->
          ignore
            (run_tree ~strategy:opts.strategy ~target:max_int st ~tel
               ~faults:opts.faults s roots 0
              : _ * int))
  | Some domains ->
      (* Expansion is the scheduler's first phase: bfs levels until one
         holds a chunk's worth of frames.  The label span covers it only. *)
      let frontier, fdepth =
        Telemetry.with_span tel label (fun () ->
            run_tree ~strategy:Policy.Bfs_only ~target:Domain_sched.default_chunks
              st ~tel ~faults:opts.faults s roots 0)
      in
      (* A chunk takes a stepper (its kernels, with their reducer set,
         reset) that an earlier chunk finished with, so at most one is
         built per worker domain; a chunk that fails drops its stepper. *)
      let spare = ref [] and lock = Mutex.create () in
      let run_chunk _ ~telemetry ~faults frames =
        let (Any st as any), cred =
          match
            Mutex.protect lock (fun () ->
                match !spare with
                | x :: rest ->
                    spare := rest;
                    Some x
                | [] -> None)
          with
          | Some (any, cred) ->
              Vc_lang.Reducer.reset_set cred;
              (any, cred)
          | None ->
              let cred = Vc_lang.Reducer.make_set decls in
              (stepper_of ~compiled source ~reducers:cred, cred)
        in
        let cs = new_cstate () in
        ignore
          (run_tree ~strategy:opts.strategy ~target:max_int st ~tel:telemetry
             ~faults cs frames fdepth
            : _ * int);
        let values = Vc_lang.Reducer.values cred in
        Mutex.protect lock (fun () -> spare := (any, cred) :: !spare);
        (cs, values)
      in
      let outs, _observed_steals =
        Domain_sched.run_chunks ~domains ~chunks:Domain_sched.default_chunks
          ~telemetry:tel ~faults:opts.faults frontier run_chunk
      in
      Array.iter
        (fun (cs, values) ->
          s.tasks <- s.tasks + cs.tasks;
          s.base_tasks <- s.base_tasks + cs.base_tasks;
          if cs.max_depth > s.max_depth then s.max_depth <- cs.max_depth;
          s.switches <- s.switches + cs.switches;
          s.reexpansions <- s.reexpansions + cs.reexpansions;
          List.iter (fun (name, v) -> Vc_lang.Reducer.reduce reducers name v) values)
        outs);
  finish ~reducers s ~wall_start

let interp =
  {
    name = "blocked";
    description =
      "interpreted: per-thread closure dispatch over SoA levels \
       (Blocked_interp for IR, ThreadBlock callbacks for native specs)";
    exec = exec_backend ~compiled:false;
  }

let compiled =
  {
    name = "compiled";
    description =
      "compiled: per-spawn-site specialized step kernels over unboxed SoA \
       frames (native specs run their own compiled callbacks)";
    exec = exec_backend ~compiled:true;
  }

let all = [ interp; compiled ]

let run ?(opts = default_opts) backend source ~roots = backend.exec opts source roots
