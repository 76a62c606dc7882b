(* Sample statistics, the clock and process probes every workload shares. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks.  +inf samples (failed or
   refused requests) sort last, so a percentile that reaches one reads
   +inf. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    if frac = 0.0 || a.(lo) = a.(hi) then a.(lo)
    else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* The fastest of repeated timings: a busy shared host only ever adds
   time, so the best is the estimate that repeats. *)
let best xs = List.fold_left Float.min infinity xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

let sum = List.fold_left ( +. ) 0.0

(* First quartile, median and third quartile, by the method of Python's
   [statistics.quantiles xs ~n:4] (its default, 'exclusive'): the spread
   the benchmark is held to is defined with it. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range over the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs med

(* Peak resident set ([VmHWM]) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      find ())

(* A seeded Fisher-Yates shuffle: the seed fixes program and point order. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
