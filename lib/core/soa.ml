let width_of vm schema =
  Vc_simd.Isa.lanes (Vc_simd.Vm.isa vm) (Schema.lane_kind schema)

(* Conversion cost attributes to a "convert" span (profiled alongside the
   engine's expand/blocked/compact frames); without a hub, a disabled one
   takes the events. *)
let hub = function Some tel -> tel | None -> Telemetry.create ()

let note_fault tel err =
  Telemetry.fault tel err;
  Telemetry.emit tel (Telemetry.Fallback { depth = 0; size = 0 })

let aos_to_soa ?telemetry ?(faults = Fault.none) ?(recover = true) ~vm ~addr
    ~schema ~isa ~aos_base ~frames () =
  let n = Array.length frames in
  let nfields = Schema.num_fields schema in
  let tel = hub telemetry in
  Telemetry.with_span tel "convert" @@ fun () ->
  Telemetry.emit tel (Telemetry.Convert { to_soa = true; n; fields = nfields });
  let elem = Schema.elem_bytes schema ~isa in
  let blk = Block.create ~label:"soa" addr ~schema ~isa ~capacity:(max n 1) in
  Array.iter (fun frame -> Block.push blk frame) frames;
  let width = width_of vm schema in
  let frame_bytes = nfields * elem in
  (* The conversion trip fires before any access is charged; the frames
     are already in the block (pure data movement), so a faulted gather
     path degrades to an element-wise scalar copy with identical result. *)
  (match
     Fault.trip faults Fault.Convert ~phase:Vc_error.Setup
       ~hint:Vc_error.Fallback_scalar
       ~detail:(fun () -> Printf.sprintf "aos->soa of %d frames x %d fields" n nfields)
   with
  | () ->
      for f = 0 to nfields - 1 do
        let chunk = ref 0 in
        while !chunk < n do
          let lanes = min width (n - !chunk) in
          (* strided read of field [f] from AoS *)
          let addrs =
            Array.init lanes (fun i ->
                aos_base + ((!chunk + i) * frame_bytes) + (f * elem))
          in
          Vc_simd.Vm.gather vm ~addrs ~lane_bytes:elem;
          (* packed store into the SoA column *)
          Vc_simd.Vm.vector_store vm
            ~addr:(Block.field_addr blk ~field:f ~row:!chunk)
            ~lanes ~lane_bytes:elem;
          chunk := !chunk + width
        done
      done
  | exception Vc_error.Error err when recover ->
      note_fault tel err;
      Vc_simd.Vm.scalar_ops vm (2 * n * nfields));
  blk

let soa_to_aos ?telemetry ?(faults = Fault.none) ?(recover = true) ~vm ~aos_base
    blk =
  let n = Block.size blk in
  let nfields = Schema.num_fields (Block.schema blk) in
  let tel = hub telemetry in
  Telemetry.with_span tel "convert" @@ fun () ->
  Telemetry.emit tel (Telemetry.Convert { to_soa = false; n; fields = nfields });
  let elem = Block.elem_bytes blk in
  let width = width_of vm (Block.schema blk) in
  let frame_bytes = nfields * elem in
  let out = Array.init n (Block.frame blk) in
  (match
     Fault.trip faults Fault.Convert ~phase:Vc_error.Execute
       ~hint:Vc_error.Fallback_scalar
       ~detail:(fun () -> Printf.sprintf "soa->aos of %d frames x %d fields" n nfields)
   with
  | () ->
      for f = 0 to nfields - 1 do
        let chunk = ref 0 in
        while !chunk < n do
          let lanes = min width (n - !chunk) in
          Vc_simd.Vm.vector_load vm
            ~addr:(Block.field_addr blk ~field:f ~row:!chunk)
            ~lanes ~lane_bytes:elem;
          let addrs =
            Array.init lanes (fun i ->
                aos_base + ((!chunk + i) * frame_bytes) + (f * elem))
          in
          Vc_simd.Vm.scatter vm ~addrs ~lane_bytes:elem;
          chunk := !chunk + width
        done
      done
  | exception Vc_error.Error err when recover ->
      note_fault tel err;
      Vc_simd.Vm.scalar_ops vm (2 * n * nfields));
  out
