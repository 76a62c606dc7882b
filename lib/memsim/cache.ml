type config = { size_bytes : int; ways : int; line_bytes : int }

type t = {
  config : config;
  sets : int;
  set_mask : int;
  line_shift : int;  (* log2 line_bytes *)
  tags : int array;  (* sets * ways; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let config t = t.config

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create config =
  if config.size_bytes <= 0 || config.ways <= 0 || config.line_bytes <= 0 then
    invalid_arg "Cache.create: sizes must be positive";
  if config.size_bytes mod (config.ways * config.line_bytes) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of ways * line";
  let sets = config.size_bytes / (config.ways * config.line_bytes) in
  if not (is_power_of_two sets) then
    invalid_arg (Printf.sprintf "Cache.create: set count %d not a power of two" sets);
  if not (is_power_of_two config.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  {
    config;
    sets;
    set_mask = sets - 1;
    line_shift = log2 config.line_bytes;
    tags = Array.make (sets * config.ways) (-1);
    stamps = Array.make (sets * config.ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

(* Scan [line]'s set from way [i]: on a hit refresh its stamp, on a miss
   fill the LRU victim (an invalid way first).  Returns whether it hit.
   The full line number doubles as the tag; distinct lines mapping to the
   same set always have distinct line numbers. *)
let rec scan t line i stop victim oldest =
  if i = stop then begin
    t.misses <- t.misses + 1;
    t.tags.(victim) <- line;
    t.stamps.(victim) <- t.clock;
    false
  end
  else
    let tag = t.tags.(i) in
    if tag = line then begin
      t.stamps.(i) <- t.clock;
      true
    end
    else
      (* invalid lines are preferred victims: give them stamp -1 *)
      let stamp = if tag = -1 then -1 else t.stamps.(i) in
      if stamp < oldest then scan t line (i + 1) stop i stamp
      else scan t line (i + 1) stop victim oldest

let access t ~addr =
  let line = addr asr t.line_shift in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let base = (line land t.set_mask) * t.config.ways in
  scan t line base (base + t.config.ways) base max_int

let access_range t ~addr ~bytes =
  let bytes = Int.max bytes 1 in
  let first = addr asr t.line_shift in
  let last = (addr + bytes - 1) asr t.line_shift in
  let misses = ref 0 in
  for line = first to last do
    if not (access t ~addr:(line lsl t.line_shift)) then incr misses
  done;
  !misses

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  reset_counters t

let lines t = t.sets * t.config.ways

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
