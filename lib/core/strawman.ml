(* Each lane owns a private stack of frames.  One "step" executes the top
   task of every non-empty lane in lockstep: a masked vector instruction
   sequence where both the base and the inductive path are charged (masked
   execution, no compaction), and every frame access is a gather/scatter
   because the lanes' stack tops sit at unrelated addresses. *)

let run ?(max_tasks = 200_000_000) ~(spec : Spec.t) ~(machine : Vc_mem.Machine.t) () =
  let m = Measure.create machine in
  let vm = m.Measure.vm in
  let isa = machine.Vc_mem.Machine.isa in
  let width = Vc_simd.Isa.lanes isa (Schema.lane_kind spec.Spec.schema) in
  let nfields = Schema.num_fields spec.Spec.schema in
  let elem = Schema.elem_bytes spec.Spec.schema ~isa in
  let insns = spec.Spec.insns in
  let reducers = Spec.make_reducers spec in
  let wall_start = Unix.gettimeofday () in
  let executed = ref 0 in
  (* Semantic execution of one task: runs the real base case or collects
     the real children.  Charging happens separately, per lockstep step. *)
  let parent_blk =
    Block.create ~label:"straw-parent" m.Measure.addr ~schema:spec.Spec.schema ~isa
      ~capacity:1
  in
  let child_blk =
    Block.create ~label:"straw-child" m.Measure.addr ~schema:spec.Spec.schema ~isa
      ~capacity:(max 1 spec.Spec.num_spawns)
  in
  let expand (frame, depth) =
    incr executed;
    if !executed > max_tasks then
      Vc_error.budget ~detail:"Strawman: task limit exceeded"
        ~phase:Vc_error.Execute Vc_error.Task_budget
        ~limit:(float_of_int max_tasks) ~actual:(float_of_int !executed) ();
    Metrics.tasks_at_level m.Measure.metrics ~depth ~n:1;
    Block.clear parent_blk;
    Block.push parent_blk frame;
    if spec.Spec.is_base parent_blk 0 then begin
      Metrics.base_at_level m.Measure.metrics ~depth ~n:1;
      spec.Spec.exec_base reducers parent_blk 0;
      []
    end
    else begin
      Block.clear child_blk;
      for site = 0 to spec.Spec.num_spawns - 1 do
        ignore (spec.Spec.spawn parent_blk 0 ~site ~dst:child_blk : bool)
      done;
      List.init (Block.size child_blk) (fun row -> (Block.frame child_blk row, depth + 1))
    end
  in
  (* Seed: expand tasks breadth-first (semantically only) until there is
     one per lane, then deal them out. *)
  let rec seed_expand queue =
    if List.length queue >= width then queue
    else
      match queue with
      | [] -> []
      | task :: rest -> seed_expand (rest @ expand task)
  in
  let seed = seed_expand (List.map (fun f -> (f, 0)) spec.Spec.roots) in
  let stacks = Array.make width [] in
  List.iteri (fun i task -> stacks.(i mod width) <- task :: stacks.(i mod width)) seed;
  let lane_base = Array.init width (fun _ -> Addr.alloc m.Measure.addr ~bytes:(1 lsl 16)) in
  let top_addr lane depth_in_stack = lane_base.(lane) + (depth_in_stack * nfields * elem) in
  let stats = Vc_simd.Vm.stats vm in
  let step_insns =
    insns.Spec.check_insns + insns.Spec.base_insns + insns.Spec.inductive_insns
    + (spec.Spec.num_spawns * insns.Spec.spawn_insns)
  in
  let continue = ref true in
  while !continue do
    let live = ref [] in
    Array.iteri (fun lane s -> if s <> [] then live := lane :: !live) stacks;
    match !live with
    | [] -> continue := false
    | lanes ->
        let k = List.length lanes in
        (* gather the top frames: one divergent-address gather per field *)
        let addrs =
          Array.of_list (List.map (fun lane -> top_addr lane (List.length stacks.(lane))) lanes)
        in
        for _f = 1 to nfields do
          Vc_simd.Vm.gather vm ~addrs ~lane_bytes:elem
        done;
        (* masked execution: both branch paths issue for every step *)
        for _i = 1 to step_insns do
          Vc_simd.Vm.vector_op vm ~width ~active:k
        done;
        if k = width then stats.Vc_simd.Stats.full_tasks <- stats.Vc_simd.Stats.full_tasks + k
        else stats.Vc_simd.Stats.epilog_tasks <- stats.Vc_simd.Stats.epilog_tasks + k;
        List.iter
          (fun lane ->
            match stacks.(lane) with
            | [] -> ()
            | task :: rest ->
                let children = expand task in
                (if children <> [] then
                   let push_addrs =
                     Array.of_list
                       (List.mapi
                          (fun i _ -> top_addr lane (List.length rest + i + 1))
                          children)
                   in
                   for _f = 1 to nfields do
                     Vc_simd.Vm.scatter vm ~addrs:push_addrs ~lane_bytes:elem
                   done);
                stacks.(lane) <- children @ rest)
          lanes
  done;
  let wall = Unix.gettimeofday () -. wall_start in
  Measure.report m ~benchmark:spec.Spec.name ~strategy:"strawman"
    ~reducers:(Vc_lang.Reducer.values reducers) ~wall_seconds:wall
