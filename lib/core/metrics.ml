type t = {
  mutable level_tasks : int array;
  mutable level_base : int array;
  mutable reexp_count : int array;
  mutable reexp_factor_sum : float array;
  mutable reexp_factor_n : int array;
  mutable max_depth : int;
  mutable total_tasks : int;
  mutable total_base : int;
  mutable space_peak : int;
  mutable kernel : int;
  occupancy : int array;  (* 10 buckets: [0,0.1) .. [0.9,1.0] *)
}

let create () =
  {
    level_tasks = Array.make 16 0;
    level_base = Array.make 16 0;
    reexp_count = Array.make 16 0;
    reexp_factor_sum = Array.make 16 0.0;
    reexp_factor_n = Array.make 16 0;
    max_depth = 0;
    total_tasks = 0;
    total_base = 0;
    space_peak = 0;
    kernel = 0;
    occupancy = Array.make 10 0;
  }

let reset t =
  t.level_tasks <- Array.make 16 0;
  t.level_base <- Array.make 16 0;
  t.reexp_count <- Array.make 16 0;
  t.reexp_factor_sum <- Array.make 16 0.0;
  t.reexp_factor_n <- Array.make 16 0;
  t.max_depth <- 0;
  t.total_tasks <- 0;
  t.total_base <- 0;
  t.space_peak <- 0;
  t.kernel <- 0;
  Array.fill t.occupancy 0 (Array.length t.occupancy) 0

let ensure t depth =
  let n = Array.length t.level_tasks in
  if depth >= n then begin
    let n' = Int.max (depth + 1) (2 * n) in
    let grow a =
      let b = Array.make n' 0 in
      Array.blit a 0 b 0 n;
      b
    in
    let growf a =
      let b = Array.make n' 0.0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.level_tasks <- grow t.level_tasks;
    t.level_base <- grow t.level_base;
    t.reexp_count <- grow t.reexp_count;
    t.reexp_factor_n <- grow t.reexp_factor_n;
    t.reexp_factor_sum <- growf t.reexp_factor_sum
  end;
  if depth > t.max_depth then t.max_depth <- depth

let tasks_at_level t ~depth ~n =
  ensure t depth;
  t.level_tasks.(depth) <- t.level_tasks.(depth) + n;
  t.total_tasks <- t.total_tasks + n

let base_at_level t ~depth ~n =
  ensure t depth;
  t.level_base.(depth) <- t.level_base.(depth) + n;
  t.total_base <- t.total_base + n

let reexpansion t ~depth ~before:_ =
  ensure t depth;
  t.reexp_count.(depth) <- t.reexp_count.(depth) + 1

let reexpansion_growth t ~depth ~factor =
  ensure t depth;
  t.reexp_factor_sum.(depth) <- t.reexp_factor_sum.(depth) +. factor;
  t.reexp_factor_n.(depth) <- t.reexp_factor_n.(depth) + 1

let live_threads t n = if n > t.space_peak then t.space_peak <- n

let kernel_ops t n = t.kernel <- t.kernel + n

let total_tasks t = t.total_tasks
let total_base t = t.total_base
let max_depth t = t.max_depth

let levels t = Array.init (t.max_depth + 1) (fun d -> (t.level_tasks.(d), t.level_base.(d)))

let reexpansions t =
  let out = ref [] in
  for d = t.max_depth downto 0 do
    if t.reexp_count.(d) > 0 then begin
      let mean =
        if t.reexp_factor_n.(d) = 0 then 1.0
        else t.reexp_factor_sum.(d) /. float_of_int t.reexp_factor_n.(d)
      in
      out := (d, t.reexp_count.(d), mean) :: !out
    end
  done;
  Array.of_list !out

let space_peak t = t.space_peak
let kernel_op_count t = t.kernel

let reexpansion_total t = Array.fold_left ( + ) 0 t.reexp_count

let occupancy_sample t ~n ~width =
  if n > 0 && width > 0 then begin
    let slots = (n + width - 1) / width * width in
    let occ = float_of_int n /. float_of_int slots in
    let bucket = Int.min 9 (int_of_float (occ *. 10.0)) in
    t.occupancy.(bucket) <- t.occupancy.(bucket) + 1
  end

let occupancy_hist t = Array.copy t.occupancy

(* Fixed-layout log-scaled latency histogram, sharded per domain so
   worker-domain adds never contend on one lock.  It keeps exact counts:
   quantiles over hours of traffic cost one O(shards * buckets) merge,
   and two histograms with the same layout merge by bucket-wise addition
   (loadgen connection threads, multi-process roll-ups). *)
module Histogram = struct
  type shard = {
    lock : Mutex.t;
    counts : int array;  (* length = buckets + 1; last = overflow (> hi) *)
    mutable sum : float;
    mutable max_seen : float;
  }

  type h = {
    lo : float;  (* upper bound of bucket 0 *)
    hi : float;  (* upper bound of the last finite bucket *)
    buckets : int;  (* finite buckets; counts arrays are buckets + 1 *)
    bounds : float array;  (* length buckets; bounds.(i) = lo * r^i *)
    shards : shard array;
  }

  type t = h

  let default_buckets = 64
  let default_lo = 0.05 (* ms: 50 us *)
  let default_hi = 60_000.0 (* ms: one minute *)

  let create ?(shards = 8) ?(buckets = default_buckets) ?(lo = default_lo)
      ?(hi = default_hi) () =
    if shards < 1 then invalid_arg "Metrics.Histogram.create: shards < 1";
    if buckets < 2 then invalid_arg "Metrics.Histogram.create: buckets < 2";
    if not (lo > 0.0 && hi > lo) then
      invalid_arg "Metrics.Histogram.create: need 0 < lo < hi";
    let r = (hi /. lo) ** (1.0 /. float_of_int (buckets - 1)) in
    let bounds = Array.init buckets (fun i -> lo *. (r ** float_of_int i)) in
    bounds.(buckets - 1) <- hi;
    (* exact, not lo * r^(n-1) rounded *)
    let shard () =
      {
        lock = Mutex.create ();
        counts = Array.make (buckets + 1) 0;
        sum = 0.0;
        max_seen = neg_infinity;
      }
    in
    { lo; hi; buckets; bounds; shards = Array.init shards (fun _ -> shard ()) }

  let same_layout a b = a.lo = b.lo && a.hi = b.hi && a.buckets = b.buckets

  (* Smallest i with x <= bounds.(i); [buckets] (overflow) when x > hi. *)
  let bucket_index t x =
    if x > t.hi then t.buckets
    else begin
      let lo = ref 0 and hi = ref (t.buckets - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if x <= t.bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let add t x =
    let s =
      t.shards.((Domain.self () :> int) mod Array.length t.shards)
    in
    let i = bucket_index t x in
    Mutex.protect s.lock (fun () ->
        s.counts.(i) <- s.counts.(i) + 1;
        s.sum <- s.sum +. x;
        if x > s.max_seen then s.max_seen <- x)

  (* One coherent pass over the shards.  Each shard is internally
     consistent (read under its lock); cross-shard skew of a few
     in-flight adds is acceptable for monitoring reads. *)
  let merged t =
    let counts = Array.make (t.buckets + 1) 0 in
    let sum = ref 0.0 and max_seen = ref neg_infinity in
    Array.iter
      (fun s ->
        Mutex.protect s.lock (fun () ->
            Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts;
            sum := !sum +. s.sum;
            if s.max_seen > !max_seen then max_seen := s.max_seen))
      t.shards;
    (counts, !sum, !max_seen)

  let counts t =
    let c, _, _ = merged t in
    c

  let count t = Array.fold_left ( + ) 0 (counts t)

  let sum t =
    let _, s, _ = merged t in
    s

  let max_value t =
    let c, _, m = merged t in
    if Array.fold_left ( + ) 0 c = 0 then 0.0 else m

  let bounds t = Array.copy t.bounds

  let cumulative t =
    let c = counts t in
    let acc = ref 0 in
    Array.init (t.buckets + 1) (fun i ->
        acc := !acc + c.(i);
        let le = if i < t.buckets then t.bounds.(i) else infinity in
        (le, !acc))

  (* Nearest-rank quantile over cumulative buckets: the upper bound of
     the first bucket whose cumulative count reaches ceil(q * total) —
     an overestimate by at most one bucket's width (~12% at the default
     layout).  Overflow-bucket hits return the exact maximum instead of
     +inf. *)
  let quantile t q =
    let c, _, max_seen = merged t in
    let total = Array.fold_left ( + ) 0 c in
    if total = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = Int.max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let acc = ref 0 and i = ref 0 in
      while !acc + c.(!i) < rank do
        acc := !acc + c.(!i);
        incr i
      done;
      if !i >= t.buckets then max_seen else t.bounds.(!i)
    end

  let merge a b =
    if not (same_layout a b) then
      invalid_arg "Metrics.Histogram.merge: layout mismatch";
    let ca, sa, ma = merged a in
    let cb, sb, mb = merged b in
    let out = create ~shards:1 ~buckets:a.buckets ~lo:a.lo ~hi:a.hi () in
    let s = out.shards.(0) in
    Array.iteri (fun i c -> s.counts.(i) <- c + cb.(i)) ca;
    s.sum <- sa +. sb;
    s.max_seen <- Float.max ma mb;
    out
end
