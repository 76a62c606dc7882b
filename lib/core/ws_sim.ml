type job = { id : int; cost : float }

type stats = {
  makespan : float;
  total_work : float;
  busy : float array;
  steals : int;
  failed_steals : int;
  jobs_run : int array;
  steal_log : (int * int * int) list;
}

(* Simple deterministic xorshift for victim selection. *)
let next_rand state =
  let x = !state in
  let x = x lxor (x lsl 13) land 0x3FFFFFFFFFFFFFFF in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land 0x3FFFFFFFFFFFFFFF in
  state := x;
  x

let simulate ?(steal_cost = 200.0) ?(seed = 1) ~workers jobs =
  if workers < 1 then invalid_arg "Ws_sim.simulate: workers must be positive";
  let rng = ref (max 1 (seed land 0x3FFFFFFFFFFFFFFF)) in
  (* Deques: bottom = list head for the owner; thieves take from the top
     (list tail), so we keep each deque as a (front, back) pair of
     lists. *)
  let front = Array.make workers [] in
  let back = Array.make workers [] in
  (* jobs are dealt bottom-up in index order, matching the domain
     scheduler's initial chunk assignment *)
  List.iteri (fun i j -> front.(i mod workers) <- j :: front.(i mod workers)) jobs;
  Array.iteri (fun w l -> front.(w) <- List.rev l) front;
  let clock = Array.make workers 0.0 in
  let busy = Array.make workers 0.0 in
  let jobs_run = Array.make workers 0 in
  let steals = ref 0 in
  let steal_log = ref [] in
  let failed = ref 0 in
  let remaining = ref (List.length jobs) in
  let pop_bottom w =
    match front.(w) with
    | j :: rest ->
        front.(w) <- rest;
        Some j
    | [] -> (
        match List.rev back.(w) with
        | j :: rest ->
            back.(w) <- [];
            front.(w) <- rest;
            Some j
        | [] -> None)
  in
  let steal_top victim =
    match back.(victim) with
    | j :: rest ->
        back.(victim) <- rest;
        Some j
    | [] -> (
        match front.(victim) with
        | [] -> None
        | js -> (
            match List.rev js with
            | j :: rest ->
                front.(victim) <- List.rev rest;
                ignore j;
                Some j
            | [] -> None))
  in
  let makespan = ref 0.0 in
  (* Event loop: repeatedly advance the worker with the smallest clock.
     A worker with local work runs it; otherwise it pays a steal attempt
     on a random victim. *)
  while !remaining > 0 do
    let w = ref 0 in
    for i = 1 to workers - 1 do
      if clock.(i) < clock.(!w) then w := i
    done;
    let w = !w in
    match pop_bottom w with
    | Some job ->
        clock.(w) <- clock.(w) +. job.cost;
        busy.(w) <- busy.(w) +. job.cost;
        jobs_run.(w) <- jobs_run.(w) + 1;
        decr remaining;
        if clock.(w) > !makespan then makespan := clock.(w)
    | None ->
        if workers = 1 then remaining := 0 (* defensive: cannot happen *)
        else begin
          let victim = next_rand rng mod workers in
          let victim = if victim = w then (victim + 1) mod workers else victim in
          clock.(w) <- clock.(w) +. steal_cost;
          match steal_top victim with
          | Some job ->
              incr steals;
              steal_log := (w, victim, job.id) :: !steal_log;
              (* the thief starts executing the stolen job immediately
                 (Cilk-style); leaving it stealable on the thief's deque
                 would let idle workers leapfrog-steal it forever *)
              clock.(w) <- clock.(w) +. job.cost;
              busy.(w) <- busy.(w) +. job.cost;
              jobs_run.(w) <- jobs_run.(w) + 1;
              decr remaining;
              if clock.(w) > !makespan then makespan := clock.(w)
          | None -> incr failed
        end
  done;
  {
    makespan = !makespan;
    total_work = List.fold_left (fun acc j -> acc +. j.cost) 0.0 jobs;
    busy;
    steals = !steals;
    failed_steals = !failed;
    jobs_run;
    steal_log = List.rev !steal_log;
  }

let utilization stats =
  if stats.makespan <= 0.0 then 1.0
  else
    Array.fold_left ( +. ) 0.0 stats.busy
    /. (stats.makespan *. float_of_int (Array.length stats.busy))
