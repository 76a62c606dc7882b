type level = { label : string; cache : Cache.t; miss_penalty : float }

(* A one-field all-float record is stored flat, so accumulating into it
   allocates nothing (a float field of [t] would be boxed per update). *)
type cycles = { mutable cycles : float }

type t = {
  levels : level array;  (* nearest first *)
  line_bytes : int;  (* shared by every level *)
  penalty : cycles;
}

let create levels =
  match levels with
  | [] -> invalid_arg "Hierarchy.create: no levels"
  | nearest :: _ ->
      let line_bytes l = (Cache.config l.cache).Cache.line_bytes in
      let line = line_bytes nearest in
      List.iter
        (fun l ->
          if line_bytes l <> line then
            invalid_arg
              (Printf.sprintf
                 "Hierarchy.create: level %s has %d-byte lines, nearest level %s has %d"
                 l.label (line_bytes l) nearest.label line))
        levels;
      { levels = Array.of_list levels; line_bytes = line; penalty = { cycles = 0.0 } }

let levels t = Array.to_list t.levels

(* Look [line_addr] up from level [i] outward, stopping at the first hit. *)
let rec walk t line_addr i =
  if i < Array.length t.levels then begin
    let l = t.levels.(i) in
    if not (Cache.access l.cache ~addr:line_addr) then begin
      t.penalty.cycles <- t.penalty.cycles +. l.miss_penalty;
      walk t line_addr (i + 1)
    end
  end

(* Inlined into the access hook that [Vc_core.Measure] installs. *)
let[@inline] access t ~addr ~bytes =
  let bytes = Int.max bytes 1 in
  (* line sizes are powers of two: masking finds each line's start *)
  let line_mask = lnot (t.line_bytes - 1) in
  let last = (addr + bytes - 1) land line_mask in
  let line_addr = ref (addr land line_mask) in
  while !line_addr <= last do
    walk t !line_addr 0;
    line_addr := !line_addr + t.line_bytes
  done

let penalty_cycles t = t.penalty.cycles

let find_level t label =
  match Array.find_opt (fun l -> l.label = label) t.levels with
  | Some l -> l
  | None -> raise Not_found

let miss_rate t label = Cache.miss_rate (find_level t label).cache

let level_stats t =
  Array.fold_right
    (fun l acc -> (l.label, Cache.accesses l.cache, Cache.misses l.cache) :: acc)
    t.levels []

let delta ~since now =
  List.map2
    (fun (l0, a0, m0) (l1, a1, m1) ->
      if l0 <> l1 then invalid_arg "Hierarchy.delta: mismatched snapshots";
      (l1, a1 - a0, m1 - m0))
    since now

let reset_counters t =
  t.penalty.cycles <- 0.0;
  Array.iter (fun l -> Cache.reset_counters l.cache) t.levels

let clear t =
  t.penalty.cycles <- 0.0;
  Array.iter (fun l -> Cache.clear l.cache) t.levels

let kib n = n * 1024
let mib n = n * 1024 * 1024

let xeon_e5 () =
  create
    [
      {
        label = "L1d";
        cache = Cache.create { Cache.size_bytes = kib 32; ways = 8; line_bytes = 64 };
        miss_penalty = 10.0;
      };
      {
        label = "LLC";
        cache = Cache.create { Cache.size_bytes = mib 20; ways = 20; line_bytes = 64 };
        miss_penalty = 150.0;
      };
    ]

let xeon_phi () =
  create
    [
      {
        label = "L1d";
        cache = Cache.create { Cache.size_bytes = kib 32; ways = 8; line_bytes = 64 };
        miss_penalty = 15.0;
      };
      {
        label = "L2";
        cache = Cache.create { Cache.size_bytes = kib 512; ways = 8; line_bytes = 64 };
        miss_penalty = 300.0;
      };
    ]
