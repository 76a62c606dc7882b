(* Execution backends over the blocked IR (ROADMAP item 1).

   A backend turns a program source — the blocked IR of a DSL program, or
   a native [Spec.t] — into whole-tree results using the Fig. 6 schedule
   (bfs levels, switch to per-site blocked execution at [max_block],
   re-expansion of shrunken blocks), with no cost model: these run at raw
   OCaml speed and report wall-clock throughput.

   The scheduler is written once, generic over a [stepper] — the object
   that knows how to execute one whole level and how to re-execute one
   frame's subtree on a scalar path.  Three steppers exist:

   - the SoA compiled stepper ({!Codegen.Soa}): per-spawn-site specialized
     kernels over unboxed structure-of-arrays frames — the "compiled"
     backend for IR sources;
   - the closure stepper ({!Blocked_interp}): per-thread closure dispatch
     over list levels — the "blocked" backend for IR sources;
   - the native stepper: [Spec.t] callbacks over ThreadBlocks — both
     backends use it for native sources (a native spec is already
     compiled OCaml; there is nothing further to specialize).

   Compiled-vs-blocked is therefore a pure dispatch/layout comparison with
   bit-equal results: both run under the same scheduler, budgets, fault
   sites and chunked-domains driver, and the differential suite holds all
   six result fields equal.

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

type source = Ir of Blocked_ast.t | Native of Spec.t

type opts = {
  strategy : Policy.strategy;
  max_tasks : int;
  telemetry : Telemetry.t option;
  faults : Fault.plan;
  recover : bool;
  budgets : Supervisor.budgets;
  domains : int option;
}

let default_opts =
  {
    strategy = Policy.Hybrid { max_block = 256; reexpand = true };
    max_tasks = 20_000_000;
    telemetry = None;
    faults = Fault.none;
    recover = true;
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
  new_level : int -> 'lvl;
  clear : 'lvl -> unit;
  of_frames : int array list -> 'lvl;
  frames : 'lvl -> int array list;
  step : src:'lvl -> blocked:bool -> next:'lvl -> sites:'lvl array -> int;
  scalar :
    on_task:(depth:int -> base:bool -> unit) -> depth:int -> int array -> unit;
  num_spawns : int;
}

let interp_stepper (inst : Blocked_interp.inst) : Blocked_interp.level stepper =
  {
    size = Blocked_interp.size;
    new_level = (fun _ -> Blocked_interp.new_level ());
    clear = Blocked_interp.clear;
    of_frames = Blocked_interp.of_frames ~nparams:inst.Blocked_interp.nparams;
    frames = Blocked_interp.frames;
    step = inst.Blocked_interp.step;
    scalar = inst.Blocked_interp.scalar;
    num_spawns = inst.Blocked_interp.num_spawns;
  }

let soa_stepper (inst : Codegen.Soa.inst) : Codegen.Soa.buf stepper =
  {
    size = Codegen.Soa.size;
    new_level = inst.Codegen.Soa.new_buf;
    clear = Codegen.Soa.clear;
    of_frames = Codegen.Soa.of_frames ~nfields:inst.Codegen.Soa.nparams;
    frames = Codegen.Soa.frames;
    step = inst.Codegen.Soa.step;
    scalar = inst.Codegen.Soa.scalar;
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
  let nfields = Schema.num_fields schema in
  let e = spec.Spec.num_spawns in
  let create cap =
    { blk = Block.create ~label:"backend" addr ~schema ~isa ~capacity:(max 1 cap) }
  in
  let frame_of blk row = Array.init nfields (fun f -> Block.get blk ~field:f ~row) in
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
  (* Scalar subtree execution over one-frame scratch blocks (the fault
     quarantine fallback), stack-driven; children are copied out before
     the scratch is reused. *)
  let parent = create 1 in
  let childbuf = create (max 1 e) in
  let scalar ~on_task ~depth frame =
    let stack = ref [ (frame, depth) ] in
    let running = ref true in
    while !running do
      match !stack with
      | [] -> running := false
      | (fr, d) :: rest ->
          stack := rest;
          Block.clear parent.blk;
          Block.push parent.blk fr;
          if spec.Spec.is_base parent.blk 0 then begin
            on_task ~depth:d ~base:true;
            spec.Spec.exec_base reducers parent.blk 0
          end
          else begin
            on_task ~depth:d ~base:false;
            Block.clear childbuf.blk;
            for site = 0 to e - 1 do
              ignore (spec.Spec.spawn parent.blk 0 ~site ~dst:childbuf.blk : bool)
            done;
            for r = Block.size childbuf.blk - 1 downto 0 do
              stack := (frame_of childbuf.blk r, d + 1) :: !stack
            done
          end
    done
  in
  {
    size = (fun l -> Block.size l.blk);
    new_level = create;
    clear = (fun l -> Block.clear l.blk);
    of_frames =
      (fun fs ->
        let l = create (List.length fs) in
        l.blk <- Block.ensure_room l.blk addr ~extra:(List.length fs);
        List.iter (Block.push l.blk) fs;
        l);
    frames =
      (fun l -> List.init (Block.size l.blk) (fun r -> frame_of l.blk r));
    step;
    scalar;
    num_spawns = max 1 e;
  }

(* ------------------------------------------------------------------ *)
(* The generic scheduler: Fig. 6's switch / re-expansion decisions plus
   cooperative budgets and per-level fault quarantine, over whole-level
   steps. *)

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

let run_tree (type l) (st : l stepper) ~tel ~faults ~recover ~strategy
    ~max_tasks ~wall_start ~(budgets : Supervisor.budgets) ~label (s : cstate)
    roots depth0 =
  let max_block, reexpand =
    match (strategy : Policy.strategy) with
    | Policy.Bfs_only -> (max_int, false)
    | Policy.Hybrid { max_block; reexpand } -> (max_block, reexpand)
  in
  let e = st.num_spawns in
  let budget_check () =
    (match budgets.max_live_frames with
    | Some limit when s.live > limit ->
        let limit_f = float_of_int limit and actual = float_of_int s.live in
        Telemetry.emit tel
          (Telemetry.Deadline { resource = "live-frames"; limit = limit_f; actual });
        Vc_error.budget ~phase:Vc_error.Execute Vc_error.Live_frames ~limit:limit_f
          ~actual ()
    | _ -> ());
    match budgets.wall_deadline with
    | Some limit ->
        let actual = Unix.gettimeofday () -. wall_start in
        if actual > limit then begin
          Telemetry.emit tel
            (Telemetry.Deadline { resource = "deadline-wall"; limit; actual });
          Vc_error.budget ~phase:Vc_error.Execute Vc_error.Deadline_wall ~limit
            ~actual ()
        end
    | None -> ()
  in
  let check_tasks n =
    if s.tasks + n > max_tasks then
      Vc_error.budget ~phase:Vc_error.Execute Vc_error.Task_budget
        ~detail:"backend task limit"
        ~limit:(float_of_int max_tasks)
        ~actual:(float_of_int (s.tasks + n))
        ()
  in
  let with_span frame f =
    if Telemetry.enabled tel then begin
      Telemetry.emit tel (Telemetry.Span_open { frame });
      Fun.protect
        ~finally:(fun () -> Telemetry.emit tel (Telemetry.Span_close { frame }))
        f
    end
    else f ()
  in
  (* Per-(depth, slot) level-buffer pool, as in the engine: buffers are
     reused once the subtree that filled them has been fully consumed.
     Slot [e] is the bfs "next" buffer, slots 0..e-1 the per-site blocked
     buffers. *)
  let pool : (int * int, l) Hashtbl.t = Hashtbl.create 64 in
  let pool_level ~depth ~slot ~cap =
    match Hashtbl.find_opt pool (depth, slot) with
    | Some l ->
        st.clear l;
        l
    | None ->
        let l = st.new_level cap in
        Hashtbl.add pool (depth, slot) l;
        l
  in
  let dummy = st.new_level 1 in
  let no_sites = [||] in
  (* Faults trip per level, before any of its rows execute, so a
     recoverable fault quarantines a still-intact level: every frame is
     re-executed on the scalar path with exact reducer values and task
     counts (switch/re-expansion counters legitimately differ, as under
     the engine's quarantine). *)
  let trip_guard ~depth ~size =
    match
      Fault.trip faults Fault.Alloc ~phase:Vc_error.Execute
        ~hint:Vc_error.Fallback_scalar
        ~detail:
          (Printf.sprintf "%s: level buffer at depth %d (%d frames)" label depth
             size)
    with
    | () -> None
    | exception Vc_error.Error err
      when recover
           && (match err.Vc_error.kind with
              | Vc_error.Fault { hint = Vc_error.Fallback_scalar; _ } -> true
              | _ -> false) ->
        Some err
  in
  let quarantine src n depth (err : Vc_error.t) =
    let site =
      match Vc_error.site_of err with
      | Some site -> Vc_error.site_name site
      | None -> "scheduler"
    in
    Telemetry.emit tel (Telemetry.Fault { site; detail = err.Vc_error.detail });
    Telemetry.emit tel (Telemetry.Fallback { depth; size = n });
    s.live <- s.live - n;
    with_span "fallback" @@ fun () ->
    List.iter
      (st.scalar ~depth ~on_task:(fun ~depth:d ~base ->
           s.tasks <- s.tasks + 1;
           if s.tasks > max_tasks then
             Vc_error.budget ~phase:Vc_error.Execute Vc_error.Task_budget
               ~detail:"backend task limit (scalar fallback)"
               ~limit:(float_of_int max_tasks)
               ~actual:(float_of_int s.tasks)
               ();
           if d > s.max_depth then s.max_depth <- d;
           if base then s.base_tasks <- s.base_tasks + 1))
      (st.frames src)
  in
  let rec bfs src n depth =
    budget_check ();
    if depth > s.max_depth then s.max_depth <- depth;
    match trip_guard ~depth ~size:n with
    | Some err -> quarantine src n depth err
    | None ->
        check_tasks n;
        s.tasks <- s.tasks + n;
        let next = pool_level ~depth:(depth + 1) ~slot:e ~cap:n in
        let nbase =
          with_span "expand" @@ fun () ->
          st.step ~src ~blocked:false ~next ~sites:no_sites
        in
        s.base_tasks <- s.base_tasks + nbase;
        Telemetry.emit tel
          (Telemetry.Level { phase = Telemetry.Bfs; depth; size = n; base = nbase });
        let ln = st.size next in
        s.live <- s.live + ln - n;
        if ln > 0 then
          if ln < max_block then bfs next ln (depth + 1)
          else begin
            s.switches <- s.switches + 1;
            Telemetry.emit tel (Telemetry.Switch { depth = depth + 1; size = ln });
            blocked next ln (depth + 1)
          end
  and blocked src n depth =
    budget_check ();
    if depth > s.max_depth then s.max_depth <- depth;
    match trip_guard ~depth ~size:n with
    | Some err -> quarantine src n depth err
    | None ->
        check_tasks n;
        s.tasks <- s.tasks + n;
        let sites =
          Array.init e (fun i -> pool_level ~depth:(depth + 1) ~slot:i ~cap:n)
        in
        let nbase =
          with_span "blocked" @@ fun () ->
          st.step ~src ~blocked:true ~next:dummy ~sites
        in
        s.base_tasks <- s.base_tasks + nbase;
        Telemetry.emit tel
          (Telemetry.Level { phase = Telemetry.Blocked; depth; size = n; base = nbase });
        let total = Array.fold_left (fun acc l -> acc + st.size l) 0 sites in
        s.live <- s.live + total - n;
        Array.iter
          (fun blk ->
            let bn = st.size blk in
            if bn > 0 then
              if bn >= max_block || not reexpand then blocked blk bn (depth + 1)
              else begin
                s.reexpansions <- s.reexpansions + 1;
                Telemetry.emit tel
                  (Telemetry.Reexpand
                     {
                       depth = depth + 1;
                       size = bn;
                       shrink = float_of_int bn /. float_of_int (max 1 max_block);
                     });
                bfs blk bn (depth + 1)
              end)
          sites
  in
  let root = st.of_frames roots in
  let n = st.size root in
  s.live <- s.live + n;
  if n > 0 then bfs root n depth0

(* ------------------------------------------------------------------ *)
(* Frontier expansion for the domains mode: serial bfs steps until the
   frontier reaches [target] frames (or the tree dies out), mirroring
   Domain_sched's fixed-chunk determinism — the frontier depends only on
   [target], never on the domain count. *)

let expand_frontier (type l) (st : l stepper) ~tel ~max_tasks (s : cstate) roots
    ~target =
  let e = st.num_spawns in
  let src = ref (st.of_frames roots) in
  let depth = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let n = st.size !src in
    if n = 0 || n >= target then continue_ := false
    else begin
      if s.tasks + n > max_tasks then
        Vc_error.budget ~phase:Vc_error.Expand Vc_error.Task_budget
          ~detail:"backend task limit (frontier expansion)"
          ~limit:(float_of_int max_tasks)
          ~actual:(float_of_int (s.tasks + n))
          ();
      s.tasks <- s.tasks + n;
      if !depth > s.max_depth then s.max_depth <- !depth;
      let next = st.new_level (n * e) in
      let nbase = st.step ~src:!src ~blocked:false ~next ~sites:[||] in
      s.base_tasks <- s.base_tasks + nbase;
      Telemetry.emit tel
        (Telemetry.Level { phase = Telemetry.Bfs; depth = !depth; size = n; base = nbase });
      src := next;
      incr depth
    end
  done;
  if st.size !src > 0 && !depth > s.max_depth then s.max_depth <- !depth;
  (st.frames !src, !depth)

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
      if compiled then Any (soa_stepper (Codegen.Soa.instantiate t ~reducers))
      else Any (interp_stepper (Blocked_interp.instantiate t ~reducers))
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

(* Single-context run (domains = None). *)
let exec_single ~compiled opts source roots =
  let tel =
    match opts.telemetry with Some t -> t | None -> Telemetry.create ()
  in
  let wall_start = Unix.gettimeofday () in
  let label = label_of source in
  let reducers = Vc_lang.Reducer.make_set (reducer_decls source) in
  let (Any st) = stepper_of ~compiled source ~reducers in
  let s = new_cstate () in
  Telemetry.emit tel (Telemetry.Span_open { frame = label });
  Fun.protect
    ~finally:(fun () -> Telemetry.emit tel (Telemetry.Span_close { frame = label }))
    (fun () ->
      run_tree st ~tel ~faults:opts.faults ~recover:opts.recover
        ~strategy:opts.strategy ~max_tasks:opts.max_tasks ~wall_start
        ~budgets:opts.budgets ~label s roots 0);
  finish ~reducers s ~wall_start

(* Chunked run across real domains (domains = Some n): serial frontier
   expansion, then {!Domain_sched.run_chunks}' fixed chunk deal and
   stealing workers, each chunk on its own stepper instance, reducer set
   and fault slice, merged in chunk-index order — results are bit-equal
   across domain counts. *)
type chunk_out = {
  co_state : cstate;
  co_reducers : (string * int) list;
  co_error : Vc_error.t option;
  co_replay : unit -> unit;
}

let exec_domains ~compiled opts source roots ~domains =
  let tel =
    match opts.telemetry with Some t -> t | None -> Telemetry.create ()
  in
  let wall_start = Unix.gettimeofday () in
  let label = label_of source in
  let decls = reducer_decls source in
  let reducers = Vc_lang.Reducer.make_set decls in
  let (Any st0) = stepper_of ~compiled source ~reducers in
  let s0 = new_cstate () in
  s0.live <- List.length roots;
  Telemetry.emit tel (Telemetry.Span_open { frame = label });
  let frontier, fdepth =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.emit tel (Telemetry.Span_close { frame = label }))
      (fun () ->
        expand_frontier st0 ~tel ~max_tasks:opts.max_tasks s0 roots
          ~target:Domain_sched.default_chunks)
  in
  let run_chunk ci frames =
    let cred = Vc_lang.Reducer.make_set decls in
    let (Any st) = stepper_of ~compiled source ~reducers:cred in
    let cs = new_cstate () in
    let ctel, replay = Telemetry.chunk_hub tel in
    let cfaults = Fault.split opts.faults ~salt:ci in
    let error =
      try
        run_tree st ~tel:ctel ~faults:cfaults ~recover:opts.recover
          ~strategy:opts.strategy ~max_tasks:opts.max_tasks ~wall_start
          ~budgets:opts.budgets ~label cs frames fdepth;
        None
      with
      | Vc_error.Error e -> Some e
      | exn -> Some (Vc_error.of_exn ~phase:Vc_error.Execute exn)
    in
    {
      co_state = cs;
      co_reducers = Vc_lang.Reducer.values cred;
      co_error = error;
      co_replay = replay;
    }
  in
  let outs, _observed_steals =
    Domain_sched.run_chunks ~domains ~chunks:Domain_sched.default_chunks frontier
      run_chunk
  in
  (* Deterministic merge in chunk-index order; the first chunk error (by
     index) wins, as in Domain_sched. *)
  let first_error = ref None in
  Array.iter
    (fun o ->
      (match o.co_error with
      | Some e when !first_error = None -> first_error := Some e
      | _ -> ());
      s0.tasks <- s0.tasks + o.co_state.tasks;
      s0.base_tasks <- s0.base_tasks + o.co_state.base_tasks;
      if o.co_state.max_depth > s0.max_depth then
        s0.max_depth <- o.co_state.max_depth;
      s0.switches <- s0.switches + o.co_state.switches;
      s0.reexpansions <- s0.reexpansions + o.co_state.reexpansions;
      o.co_replay ();
      List.iter
        (fun (name, v) -> Vc_lang.Reducer.reduce reducers name v)
        o.co_reducers)
    outs;
  (match !first_error with Some e -> raise (Vc_error.Error e) | None -> ());
  finish ~reducers s0 ~wall_start

let exec_backend ~compiled opts source roots =
  match opts.domains with
  | None -> exec_single ~compiled opts source roots
  | Some domains -> exec_domains ~compiled opts source roots ~domains

let interp =
  {
    name = "blocked";
    description =
      "interpreted: per-thread closure dispatch over list levels \
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
let find name = List.find_opt (fun b -> b.name = name) all

let run ?(opts = default_opts) backend source ~roots = backend.exec opts source roots

let roots_of = function
  | Ir _ -> invalid_arg "Backend.roots_of: IR sources carry no roots"
  | Native spec -> spec.Spec.roots
