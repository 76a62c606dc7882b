(* The benchmark's declaration, read from BENCHMARK.json at the root of the
   checkout: the single source of metric names, units, directions and
   bounds. *)

module J = Vc_exp.Jsonx

type metric = { name : string; unit_ : string; higher_better : bool; bound : float option }

type t = {
  run_seconds : int;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.parse text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
      let metrics key =
        List.map
          (fun m ->
            {
              name = J.to_str (J.member "name" m);
              unit_ = J.to_str (J.member "unit" m);
              higher_better = J.to_str (J.member "better" m) = "higher";
              bound = (match J.member "bound" m with J.Null -> None | b -> Some (J.to_float b));
            })
          (J.to_list (J.member key j))
      in
      {
        run_seconds = J.to_int (J.member "run_seconds" j);
        end_to_end = metrics "end_to_end";
        per_layer = metrics "per_layer";
      }

let declared t ~trace = if trace then t.per_layer else t.end_to_end
