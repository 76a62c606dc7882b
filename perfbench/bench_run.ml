(* What every workload receives and hands back. *)

type cfg = {
  seed : int;
  seconds : float;  (** measured time; a run always completes one full round *)
  trace : bool;  (** per-layer pass instead of the end-to-end pass *)
  quick : bool;  (** reduced inputs: the [--smoke] self-check only *)
  vcilk : string;  (** the daemon binary the serve workloads launch *)
}

type t = {
  errors : string list;  (** oracle mismatches; any one fails the run *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** values by BENCHMARK.json name *)
  detail : (string * Vc_exp.Jsonx.t) list;  (** extra fields for [--out] *)
}

let rng cfg ~salt = Random.State.make [| cfg.seed; Hashtbl.hash salt |]

(* [setup_s]: set up [n] times and report the median.  The last set-up is
   the one the run measures with; [release] tears down the others,
   outside the timing. *)
let timed_setups ?(n = 3) ?(release = ignore) f =
  let rec go i acc =
    let x, dt = Pstats.time f in
    if i = n then (x, Pstats.median (dt :: acc))
    else begin
      release x;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

(* Run [f] over rounds of [jobs], each round in a fresh seeded order, until
   [seconds] have elapsed.  The clock is checked after every job; the first
   [min_rounds] rounds always complete. *)
let for_seconds ?(min_rounds = 1) ~rng seconds jobs f =
  let t0 = Pstats.now () in
  let time_left () = Pstats.now () -. t0 < seconds in
  let rec round r =
    let rec go = function
      | [] -> true
      | j :: rest ->
          f j;
          (r <= min_rounds || time_left ()) && go rest
    in
    if go (Pstats.shuffle rng jobs) && (r < min_rounds || time_left ()) then round (r + 1)
  in
  round 1

(* Samples grouped by key, in measurement order. *)
let samples () =
  let tbl = Hashtbl.create 16 in
  let get k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  ((fun k x -> Hashtbl.replace tbl k (get k @ [ x ])), get)
