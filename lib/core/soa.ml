let width_of vm schema =
  Vc_simd.Isa.lanes (Vc_simd.Vm.isa vm) (Schema.lane_kind schema)

let emit_opt telemetry ev =
  match telemetry with Some tel -> Telemetry.emit tel ev | None -> ()

(* Conversion cost attributes to a "convert" span (profiled alongside the
   engine's expand/blocked/compact frames). *)
let with_span_opt telemetry f =
  match telemetry with
  | Some tel when Telemetry.enabled tel ->
      Telemetry.emit tel (Telemetry.Span_open { frame = "convert" });
      Fun.protect
        ~finally:(fun () ->
          Telemetry.emit tel (Telemetry.Span_close { frame = "convert" }))
        f
  | Some _ | None -> f ()

let note_fault telemetry (err : Vc_error.t) =
  emit_opt telemetry
    (Telemetry.Fault
       {
         site =
           (match Vc_error.site_of err with
           | Some s -> Vc_error.site_name s
           | None -> "unknown");
         detail = err.Vc_error.detail;
       });
  emit_opt telemetry (Telemetry.Fallback { depth = 0; size = 0 })

let aos_to_soa ?telemetry ?(faults = Fault.none) ?(recover = true) ~vm ~addr
    ~schema ~isa ~aos_base ~frames () =
  let n = Array.length frames in
  let nfields = Schema.num_fields schema in
  with_span_opt telemetry @@ fun () ->
  emit_opt telemetry (Telemetry.Convert { to_soa = true; n; fields = nfields });
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
      note_fault telemetry err;
      Vc_simd.Vm.scalar_ops vm (2 * n * nfields));
  blk

let soa_to_aos ?telemetry ?(faults = Fault.none) ?(recover = true) ~vm ~aos_base
    blk =
  let n = Block.size blk in
  let nfields = Schema.num_fields (Block.schema blk) in
  with_span_opt telemetry @@ fun () ->
  emit_opt telemetry (Telemetry.Convert { to_soa = false; n; fields = nfields });
  let elem = Block.elem_bytes blk in
  let width = width_of vm (Block.schema blk) in
  let frame_bytes = nfields * elem in
  let out =
    Array.init n (fun row ->
        Array.init nfields (fun f -> Block.get blk ~field:f ~row))
  in
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
      note_fault telemetry err;
      Vc_simd.Vm.scalar_ops vm (2 * n * nfields));
  out
