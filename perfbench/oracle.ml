(* Independent reference results.  An oracle never calls the executors
   under test (Backend, Engine, the serve memo). *)

module R = Vc_bench.Registry

type t = {
  reducers : (string * int) list;
  tasks : int option;  (** [None] where the reference cannot count them *)
}

(* The sequential tree interpreter, combined across root frames under each
   reducer's own operator. *)
let interp (program : Vc_lang.Ast.program) roots =
  let set =
    Vc_lang.Reducer.make_set
      (List.map
         (fun (r : Vc_lang.Ast.reducer_decl) -> (r.red_name, r.red_op))
         program.reducers)
  in
  let tasks =
    List.fold_left
      (fun acc root ->
        let o = Vc_lang.Interp.run program (Array.to_list root) in
        List.iter (fun (n, v) -> Vc_lang.Reducer.reduce set n v) o.reducers;
        acc + Vc_lang.Profile.tasks o.profile)
      0 roots
  in
  { reducers = Vc_lang.Reducer.values set; tasks = Some tasks }

let quick_ctx = lazy (Vc_exp.Sweep.create ~quick:true ())

(* Quick scale: the interpreter for DSL entries, the sequential
   executor for native ones. *)
let quick_scale (e : R.entry) =
  match e.dsl with
  | Some dsl ->
      let p, roots = dsl ~quick:true in
      interp p roots
  | None ->
      let spec = Vc_exp.Sweep.spec_of (Lazy.force quick_ctx) e in
      let r = Vc_core.Seq_exec.run ~spec ~machine:Vc_mem.Machine.xeon_e5 () in
      { reducers = r.reducers; tasks = Some r.tasks }

(* Full scale: the native reference values (plain recursive OCaml); the
   trees are too large to interpret within a run. *)
let full (e : R.entry) = { reducers = e.expected (); tasks = None }

let for_scale ~quick e = if quick then quick_scale e else full e

(* Built-in benchmarks and the [.rtp] workloads the serve daemon loads
   from its default directories. *)
let resolve name =
  match R.resolve ~dirs:[ "examples/dsl"; "test/corpus" ] name with
  | Ok e -> e
  | Error err -> failwith (Vc_core.Vc_error.to_string err)

let show rs = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) rs)

(* Prepends a description of each mismatch to [errors]. *)
let check ~what (o : t) ~reducers ~tasks errors =
  let errors =
    if List.sort compare o.reducers <> List.sort compare reducers then
      Printf.sprintf "%s: reducers %s, expected %s" what (show reducers) (show o.reducers)
      :: errors
    else errors
  in
  match o.tasks with
  | Some t when t <> tasks ->
      Printf.sprintf "%s: %d tasks, expected %d" what tasks t :: errors
  | _ -> errors
