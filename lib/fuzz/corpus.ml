open Vc_core

let oracle (p : Vc_lang.Ast.program) (roots : int list list) =
  let ops =
    List.map
      (fun (r : Vc_lang.Ast.reducer_decl) ->
        (r.Vc_lang.Ast.red_name, r.Vc_lang.Ast.red_op))
      p.Vc_lang.Ast.reducers
  in
  let acc = List.map (fun (n, op) -> (n, op, Vc_lang.Reducer.identity op)) ops in
  let combine acc reducers =
    List.map
      (fun (n, op, v) ->
        match List.assoc_opt n reducers with
        | Some v' -> (n, op, Vc_lang.Reducer.apply op v v')
        | None -> (n, op, v))
      acc
  in
  let rec loop acc tasks = function
    | [] -> Ok (List.map (fun (n, _, v) -> (n, v)) acc, tasks)
    | root :: rest -> (
        match Vc_lang.Interp.run p root with
        | exception Vc_lang.Interp.Runtime_error msg ->
            Error (Printf.sprintf "interpreter: %s" msg)
        | exception Vc_lang.Interp.Task_limit_exceeded n ->
            Error (Printf.sprintf "interpreter exceeded %d tasks" n)
        | out ->
            loop
              (combine acc out.Vc_lang.Interp.reducers)
              (tasks + Vc_lang.Profile.tasks out.Vc_lang.Interp.profile)
              rest)
  in
  loop acc 0 roots

let reproducer_source ~name ~provenance p args expected =
  let sb =
    {
      Vc_lang.Spec_block.empty with
      Vc_lang.Spec_block.name = Some name;
      inputs = [ args ];
      expect = expected;
      quick_expect = expected;
    }
  in
  String.concat "\n"
    (List.map (fun l -> "// " ^ l) provenance
    @ Vc_lang.Spec_block.to_lines sb
    @ [ ""; Vc_lang.Pp.program_to_string p ])
  ^ "\n"

let write_error fmt =
  Printf.ksprintf
    (fun detail ->
      Error
        {
          Vc_error.kind =
            Vc_error.Fault { site = Vc_error.Cache_io; hint = Vc_error.Abort };
          phase = Vc_error.Load;
          detail;
        })
    fmt

let write ~dir ~name ~provenance p args =
  match oracle p [ args ] with
  | Error msg -> write_error "reproducer %s: oracle failed: %s" name msg
  | Ok (expected, _) -> (
      let path = Filename.concat dir (name ^ ".rtp") in
      match
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (reproducer_source ~name ~provenance p args expected))
      with
      | exception Sys_error msg -> write_error "reproducer %s: %s" name msg
      | () -> (
          (* the reproducer is only useful if the registry can load it back *)
          match Vc_bench.Registry.load_file path with
          | Ok _ -> Ok path
          | Error e ->
              write_error "reproducer %s does not load back: %s" path
                (Vc_error.to_string e)))

let replay ~quick (l : Vc_bench.Registry.loaded) =
  let entry = l.Vc_bench.Registry.entry in
  let name = entry.Vc_bench.Registry.name in
  let fail fmt = Printf.ksprintf (fun m -> Error (name ^ ": " ^ m)) fmt in
  match entry.Vc_bench.Registry.dsl with
  | None -> fail "no DSL program attached"
  | Some dsl -> (
      let p, roots = dsl ~quick in
      let root_lists = List.map Array.to_list roots in
      match oracle p root_lists with
      | Error msg -> fail "%s" msg
      | Ok (reducers, tasks) -> (
          let pinned =
            if quick then l.Vc_bench.Registry.quick_expected
            else entry.Vc_bench.Registry.expected ()
          in
          let bad_pin =
            List.find_opt
              (fun (n, v) -> List.assoc_opt n reducers <> Some v)
              pinned
          in
          match bad_pin with
          | Some (n, v) ->
              fail "spec pins %s=%d but the oracle computes %s" n v
                (String.concat ","
                   (List.map
                      (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                      reducers))
          | None -> (
              let checks = ref 1 in
              let args =
                match root_lists with r :: _ -> r | [] -> []
              in
              let spec =
                let s = Compile.spec_of_program ~name p ~args in
                { s with Spec.roots }
              in
              match
                Engine.run ~spec ~machine:Vc_mem.Machine.xeon_e5
                  ~strategy:(Policy.Hybrid { max_block = 8; reexpand = true })
                  ()
              with
              | exception Vc_error.Error e ->
                  fail "engine: %s" (Vc_error.to_string e)
              | r when r.Report.oom -> fail "engine reported OOM"
              | r -> (
                  if r.Report.reducers <> reducers || r.Report.tasks <> tasks
                  then
                    fail "engine computes %s / %d tasks, oracle %s / %d"
                      (String.concat ","
                         (List.map
                            (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                            r.Report.reducers))
                      r.Report.tasks
                      (String.concat ","
                         (List.map
                            (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                            reducers))
                      tasks
                  else begin
                    incr checks;
                    let ir = Backend.Ir (Transform.transform p) in
                    let run backend =
                      Backend.run backend ir ~roots
                    in
                    match run Backend.interp with
                    | exception Vc_error.Error e ->
                        fail "blocked backend: %s" (Vc_error.to_string e)
                    | b -> (
                        if b.Backend.reducers <> reducers then
                          fail "blocked backend computes %s"
                            (String.concat ","
                               (List.map
                                  (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                                  b.Backend.reducers))
                        else begin
                          incr checks;
                          match run Backend.compiled with
                          | exception Vc_error.Error e ->
                              fail "compiled backend: %s"
                                (Vc_error.to_string e)
                          | c ->
                              if not (Backend.equal c b) then
                                fail
                                  "compiled six-field report differs from \
                                   blocked (%d vs %d tasks)"
                                  c.Backend.tasks b.Backend.tasks
                              else begin
                                incr checks;
                                Ok !checks
                              end
                        end)
                  end))))
