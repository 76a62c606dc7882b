(* Quickstart: the whole pipeline on the paper's running example.

   1. Write a recursive task-parallel program in the Fig. 2 language.
   2. Validate it and run it sequentially (the reference semantics).
   3. Apply the Fig. 7 transformation and print the blocked code, plus
      its loop-distributed dense-step form.
   4. Compile it to an executable spec and run it on the simulated vector
      machine under the re-expansion schedule.

   Run with: dune exec examples/quickstart.exe *)

let source =
  "reducer sum result;\n\
   def fib(n) =\n\
  \  if n < 2 then { reduce(result, n); }\n\
  \  else { spawn fib(n - 1); spawn fib(n - 2); }\n"

let () =
  (* 1. parse + validate *)
  let program = Vc_lang.Parser.parse_string source in
  let info = Vc_lang.Validate.check_exn program in
  Format.printf "parsed %s: %d spawn sites@.@." program.Vc_lang.Ast.mth.Vc_lang.Ast.name
    info.Vc_lang.Validate.num_spawns;

  (* 2. sequential reference run *)
  let out = Vc_lang.Interp.run program [ 25 ] in
  Format.printf "sequential: result = %d over %d tasks@.@."
    (List.assoc "result" out.Vc_lang.Interp.reducers)
    (Vc_lang.Profile.tasks out.Vc_lang.Interp.profile);

  (* 3. the code transformation (compare the paper's Figs. 3 and 4(b)) *)
  let transformed = Vc_core.Transform.transform program in
  Format.printf "%a@.@." Vc_core.Blocked_ast.pp transformed;

  (* ... and execute the transformed code directly, to see it agrees *)
  let blocked =
    Vc_core.Backend.run Vc_core.Backend.interp (Vc_core.Backend.Ir transformed)
      ~roots:[ [| 25 |] ]
  in
  Format.printf "transformed code: result = %d, %d bfs->blocked switches, %d \
                 re-expansions@.@."
    (List.assoc "result" blocked.Vc_core.Backend.reducers)
    blocked.Vc_core.Backend.switches
    blocked.Vc_core.Backend.reexpansions;

  (* 3b. ...and the compiler's view after loop distribution and
     if-conversion: a series of dense, directly vectorizable steps *)
  Format.printf "%a@.@." Vc_core.Distribute.pp
    (Vc_core.Distribute.distribute transformed.Vc_core.Blocked_ast.bfs_method);

  (* 4. measured execution on the simulated vector hardware *)
  let spec = Vc_core.Compile.spec_of_program ~lane_kind:Vc_simd.Lane.I8 program ~args:[ 25 ] in
  let machine = Vc_mem.Machine.xeon_e5 in
  let seq = Vc_core.Seq_exec.run ~spec ~machine () in
  let vec =
    Vc_core.Engine.run ~spec ~machine
      ~strategy:(Vc_core.Policy.Hybrid { max_block = 512; reexpand = true })
      ()
  in
  Format.printf "%a@.@." Vc_core.Report.pp_summary vec;
  Format.printf "modeled speedup on %s: %.2fx (utilization %.1f%%)@."
    machine.Vc_mem.Machine.name
    (Vc_core.Report.speedup ~baseline:seq vec)
    (100.0 *. vec.Vc_core.Report.utilization)
