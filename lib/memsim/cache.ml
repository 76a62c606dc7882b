type config = { size_bytes : int; ways : int; line_bytes : int }

type t = {
  config : config;
  ways : int;
  set_mask : int;
  line_shift : int;  (* log2 line_bytes *)
  tags : Bytes.t;
      (* sets * ways 32-bit tags; each set most recent first, its invalid
         ways (-1) last *)
  mutable accesses : int;
  mutable misses : int;
}

(* Native-endian 32-bit cells, compiled inline: reading one back
   sign-extends, so the invalid marker -1 and every line number below
   2^31 round-trip exactly, and neither direction boxes an [int32].
   Unchecked: every index [access] makes is a way of the set
   [line land set_mask], below [sets * ways] cells. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let get tags i = Int32.to_int (get32 tags (i lsl 2))
let set tags i v = set32 tags (i lsl 2) (Int32.of_int v)

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
    ways = config.ways;
    set_mask = sets - 1;
    line_shift = log2 config.line_bytes;
    (* every byte 0xff: every tag -1 *)
    tags = Bytes.make (4 * sets * config.ways) '\255';
    accesses = 0;
    misses = 0;
  }

(* One pass over ways [i..last] of a set whose front way has already
   missed: each way takes [carry], the tag of the way before it, until
   the way that held [line] (a hit), the first invalid way or the last
   way (a miss) takes it and its own tag drops out.  Returns whether
   [line] was found. *)
let rec shift tags line i last carry =
  let tag = get tags i in
  set tags i carry;
  if tag = line then true
  else if tag = -1 || i >= last then false
  else shift tags line (i + 1) last tag

(* [access] is inlined into [Hierarchy]'s level walk; its failure branch
   stays out of line so each inlined copy is one compare and a call. *)
let[@inline never] out_of_range () =
  invalid_arg "Cache.access: line number outside [0, 2^31)"

(* LRU is a stack algorithm, so keeping each set in recency order holds
   exactly the lines a timestamped LRU would.  A hit moves its line to
   the front; a miss drops the set's last way (an invalid way while one
   is left, else the least recent line) and enters at the front.  The
   full line number doubles as the tag; distinct lines mapping to the
   same set always have distinct line numbers.  A tag is 32 bits, so a
   line number outside [0, 2^31) is rejected rather than stored as an
   alias of another line or of the invalid marker. *)
let[@inline] access t ~addr =
  let line = addr asr t.line_shift in
  if line lsr 31 <> 0 then out_of_range ();
  t.accesses <- t.accesses + 1;
  let tags = t.tags in
  let base = (line land t.set_mask) * t.ways in
  let front = get tags base in
  if front = line then true
  else begin
    set tags base line;
    let hit = t.ways > 1 && shift tags line (base + 1) (base + t.ways - 1) front in
    if not hit then t.misses <- t.misses + 1;
    hit
  end

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let clear t =
  Bytes.fill t.tags 0 (Bytes.length t.tags) '\255';
  reset_counters t

let lines t = Bytes.length t.tags / 4

let resident_lines t =
  let n = ref 0 in
  for i = 0 to lines t - 1 do
    if get t.tags i >= 0 then incr n
  done;
  !n
