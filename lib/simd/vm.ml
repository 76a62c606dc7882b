type hook = addr:int -> bytes:int -> write:bool -> unit

type t = {
  isa : Isa.t;
  stats : Stats.t;
  mutable on_access : hook option;
}

let create ?on_access isa = { isa; stats = Stats.create (); on_access }

let isa t = t.isa
let stats t = t.stats
let snapshot t = Stats.copy t.stats
let set_on_access t hook = t.on_access <- hook

let report t addr bytes write =
  match t.on_access with
  | None -> ()
  | Some f -> f ~addr ~bytes ~write

let scalar_ops t n = t.stats.scalar_ops <- t.stats.scalar_ops + n

let vector_op t ~width ~active =
  t.stats.vector_ops <- t.stats.vector_ops + 1;
  t.stats.lane_slots <- t.stats.lane_slots + width;
  t.stats.active_lanes <- t.stats.active_lanes + active

let batch t ?(classify = false) ~width ~n ~insns_per_task () =
  if n > 0 then begin
    if insns_per_task > 0 then begin
      let groups = (n + width - 1) / width in
      t.stats.vector_ops <- t.stats.vector_ops + (groups * insns_per_task);
      t.stats.lane_slots <- t.stats.lane_slots + (groups * width * insns_per_task);
      t.stats.active_lanes <- t.stats.active_lanes + (n * insns_per_task)
    end;
    if classify then begin
      t.stats.full_tasks <- t.stats.full_tasks + (n / width * width);
      t.stats.epilog_tasks <- t.stats.epilog_tasks + (n mod width)
    end
  end

let scalar_load t ~addr ~bytes =
  t.stats.scalar_ops <- t.stats.scalar_ops + 1;
  t.stats.scalar_loads <- t.stats.scalar_loads + 1;
  report t addr bytes false

let scalar_store t ~addr ~bytes =
  t.stats.scalar_ops <- t.stats.scalar_ops + 1;
  t.stats.scalar_stores <- t.stats.scalar_stores + 1;
  report t addr bytes true

let vector_load t ~addr ~lanes ~lane_bytes =
  vector_op t ~width:lanes ~active:lanes;
  t.stats.vector_loads <- t.stats.vector_loads + 1;
  report t addr (lanes * lane_bytes) false

let vector_store t ~addr ~lanes ~lane_bytes =
  vector_op t ~width:lanes ~active:lanes;
  t.stats.vector_stores <- t.stats.vector_stores + 1;
  report t addr (lanes * lane_bytes) true

let column t ~write ~addr ~n ~width ~lane_bytes =
  let row = ref 0 in
  while !row < n do
    let lanes = Int.min width (n - !row) in
    let addr = addr + (!row * lane_bytes) in
    if write then vector_store t ~addr ~lanes ~lane_bytes
    else vector_load t ~addr ~lanes ~lane_bytes;
    row := !row + width
  done

let gather t ~addrs ~lane_bytes =
  let lanes = Array.length addrs in
  vector_op t ~width:lanes ~active:lanes;
  t.stats.gathers <- t.stats.gathers + 1;
  Array.iter (fun addr -> report t addr lane_bytes false) addrs

let scatter t ~addrs ~lane_bytes =
  let lanes = Array.length addrs in
  vector_op t ~width:lanes ~active:lanes;
  t.stats.scatters <- t.stats.scatters + 1;
  Array.iter (fun addr -> report t addr lane_bytes true) addrs

let shuffle t ~width =
  if not t.isa.Isa.has_shuffle then
    invalid_arg
      (Printf.sprintf "Vm.shuffle: ISA %s has no shuffle instruction" t.isa.Isa.name);
  vector_op t ~width ~active:width;
  t.stats.shuffles <- t.stats.shuffles + 1

let masked_scatter t ~width ~active ~lane_bytes ~addr =
  if not t.isa.Isa.has_masked_scatter then
    invalid_arg
      (Printf.sprintf "Vm.masked_scatter: ISA %s has no masked scatter" t.isa.Isa.name);
  vector_op t ~width ~active;
  t.stats.scatters <- t.stats.scatters + 1;
  report t addr (active * lane_bytes) true

let table_lookup t ~addr ~bytes =
  t.stats.table_lookups <- t.stats.table_lookups + 1;
  scalar_load t ~addr ~bytes

let issue_cycles t =
  let s = t.stats in
  let f = float_of_int in
  (f s.scalar_ops *. t.isa.Isa.scalar_issue)
  +. (f s.vector_ops *. t.isa.Isa.vector_issue)
  +. (f s.gathers *. t.isa.Isa.gather_cost)
  +. (f s.scatters *. t.isa.Isa.scatter_cost)
