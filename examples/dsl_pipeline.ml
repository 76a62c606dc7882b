(* Batch-processing DSL programs from files.

   Reads every .rtp program under examples/dsl/, validates it, prints its
   transformation, and cross-checks three executions of each: the
   sequential interpreter, the transformed-code interpreter, and the
   compiled spec on the measured engine.

   Run with: dune exec examples/dsl_pipeline.exe *)

let args_for = function
  | "fib" -> [ 18 ]
  | "paren" -> [ 8; 0; 0 ]
  | "binomial" -> [ 14; 6 ]
  | "sumrange" -> [ 0; 2000 ]
  | name -> failwith ("no default arguments for " ^ name)

let dsl_dir =
  (* works from the repo root and from _build *)
  let candidates = [ "examples/dsl"; "../../../examples/dsl"; "dsl" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> failwith "cannot locate examples/dsl"

let () =
  let files =
    Sys.readdir dsl_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rtp")
    |> List.sort compare
  in
  List.iter
    (fun file ->
      let path = Filename.concat dsl_dir file in
      Format.printf "=== %s ===@." file;
      let program = Vc_lang.Parser.parse_file path in
      let info = Vc_lang.Validate.check_exn program in
      let name = program.Vc_lang.Ast.mth.Vc_lang.Ast.name in
      let args = args_for name in
      Format.printf "%s: %d params, %d spawn sites, locals: [%s]@." name
        (List.length program.Vc_lang.Ast.mth.Vc_lang.Ast.params)
        info.Vc_lang.Validate.num_spawns
        (String.concat "; " info.Vc_lang.Validate.locals);

      (* 1. sequential reference *)
      let reference = Vc_lang.Interp.run program args in
      (* 2. transformed code, interpreted *)
      let transformed = Vc_core.Transform.transform program in
      let blocked =
        Vc_core.Backend.run Vc_core.Backend.interp (Vc_core.Backend.Ir transformed)
          ~roots:[ Array.of_list args ]
      in
      (* 3. compiled spec on the measured engine *)
      let spec = Vc_core.Compile.spec_of_program program ~args in
      let engine =
        Vc_core.Engine.run ~spec ~machine:Vc_mem.Machine.xeon_e5
          ~strategy:(Vc_core.Policy.Hybrid { max_block = 128; reexpand = true })
          ()
      in
      List.iter
        (fun (reducer, expected) ->
          let from_blocked = List.assoc reducer blocked.Vc_core.Backend.reducers in
          let from_engine = Vc_core.Report.reducer engine reducer in
          Format.printf "  %-8s sequential=%d transformed=%d engine=%d  %s@."
            reducer expected from_blocked from_engine
            (if expected = from_blocked && expected = from_engine then "OK"
             else "MISMATCH!");
          if expected <> from_blocked || expected <> from_engine then exit 1)
        reference.Vc_lang.Interp.reducers;
      Format.printf "  (%d tasks; engine utilization %.1f%%)@.@."
        blocked.Vc_core.Backend.tasks
        (100.0 *. engine.Vc_core.Report.utilization))
    files
