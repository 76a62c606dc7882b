(* Growable parallel stacks of frames and depths.  Frames live in a Block
   so the spec's accessors apply; the block's rows are the stack slots. *)

let run ?(max_tasks = 200_000_000) ~(spec : Spec.t) ~(machine : Vc_mem.Machine.t) () =
  let m = Measure.create machine in
  let vm = m.Measure.vm in
  let isa = machine.Vc_mem.Machine.isa in
  let nfields = Schema.num_fields spec.Spec.schema in
  let elem = Schema.elem_bytes spec.Spec.schema ~isa in
  let reducers = Spec.make_reducers spec in
  let insns = spec.Spec.insns in
  let wall_start = Unix.gettimeofday () in

  (* The software stack. *)
  let stack = ref (Block.create ~label:"stack" m.Measure.addr ~schema:spec.Spec.schema ~isa ~capacity:1024) in
  let depths = ref (Array.make 1024 0) in
  let push_frame frame depth =
    stack := Block.ensure_room !stack m.Measure.addr ~extra:1;
    if Block.size !stack >= Array.length !depths then begin
      let grown = Array.make (2 * Array.length !depths) 0 in
      Array.blit !depths 0 grown 0 (Array.length !depths);
      depths := grown
    end;
    let row = Block.reserve !stack in
    Array.iteri (fun f v -> Block.set !stack ~field:f ~row v) frame;
    !depths.(row) <- depth;
    (* frame spill: one scalar store per field.  The SoA transformation
       turns exactly these into packed vector stores, so they count as
       vectorizable work in the Table 3 split. *)
    for f = 0 to nfields - 1 do
      Vc_simd.Vm.scalar_store vm ~addr:(Block.field_addr !stack ~field:f ~row) ~bytes:elem
    done;
    Metrics.kernel_ops m.Measure.metrics nfields
  in
  (* Scratch space for the popped frame ("registers") and for children in
     flight; modeled as register traffic, not memory. *)
  let scratch = Block.create ~label:"scratch" m.Measure.addr ~schema:spec.Spec.schema ~isa ~capacity:1 in
  let child_scratch =
    Block.create ~label:"child" m.Measure.addr ~schema:spec.Spec.schema ~isa
      ~capacity:(max 1 spec.Spec.num_spawns)
  in
  List.iter (fun frame -> push_frame frame 0) spec.Spec.roots;
  let tasks = ref 0 in
  while Block.size !stack > 0 do
    incr tasks;
    if !tasks > max_tasks then
      Vc_error.budget ~detail:"Seq_exec: task limit exceeded"
        ~phase:Vc_error.Execute Vc_error.Task_budget
        ~limit:(float_of_int max_tasks) ~actual:(float_of_int !tasks) ();
    let top = Block.size !stack - 1 in
    let depth = !depths.(top) in
    (* pop: one scalar load per field + pointer bookkeeping *)
    Block.clear scratch;
    Block.copy_row ~src:!stack ~src_row:top ~dst:scratch;
    for f = 0 to nfields - 1 do
      Vc_simd.Vm.scalar_load vm ~addr:(Block.field_addr !stack ~field:f ~row:top) ~bytes:elem
    done;
    Metrics.kernel_ops m.Measure.metrics nfields;
    Vc_simd.Vm.scalar_ops vm 2;
    Block.truncate !stack top;
    Metrics.tasks_at_level m.Measure.metrics ~depth ~n:1;
    Metrics.live_threads m.Measure.metrics (Block.size !stack + 1);
    Vc_simd.Vm.scalar_ops vm insns.Spec.check_insns;
    Metrics.kernel_ops m.Measure.metrics insns.Spec.check_insns;
    (* the scalar residue executes here too, but stays non-vectorizable
       under the transformation, so it is not kernel work *)
    Vc_simd.Vm.scalar_ops vm insns.Spec.scalar_insns;
    if spec.Spec.is_base scratch 0 then begin
      Metrics.base_at_level m.Measure.metrics ~depth ~n:1;
      Vc_simd.Vm.scalar_ops vm insns.Spec.base_insns;
      Metrics.kernel_ops m.Measure.metrics insns.Spec.base_insns;
      spec.Spec.exec_base reducers scratch 0
    end
    else begin
      Vc_simd.Vm.scalar_ops vm insns.Spec.inductive_insns;
      Metrics.kernel_ops m.Measure.metrics insns.Spec.inductive_insns;
      (* Collect children, then push them in reverse site order so the
         site-0 child is on top: left-to-right depth-first order. *)
      Block.clear child_scratch;
      for site = 0 to spec.Spec.num_spawns - 1 do
        Vc_simd.Vm.scalar_ops vm insns.Spec.spawn_insns;
        Metrics.kernel_ops m.Measure.metrics insns.Spec.spawn_insns;
        ignore (spec.Spec.spawn scratch 0 ~site ~dst:child_scratch : bool)
      done;
      for child = Block.size child_scratch - 1 downto 0 do
        push_frame (Block.frame child_scratch child) (depth + 1)
      done
    end
  done;
  let wall = Unix.gettimeofday () -. wall_start in
  Measure.report m ~benchmark:spec.Spec.name ~strategy:"seq"
    ~reducers:(Vc_lang.Reducer.values reducers) ~wall_seconds:wall
