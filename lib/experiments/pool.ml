let log_src = Logs.Src.create "vc.pool" ~doc:"Domain work-queue pool"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_jobs () = Domain.recommended_domain_count ()

type failure = { index : int; error : Vc_core.Vc_error.t }

(* Which budget violations abort a whole queue?  Time-like budgets
   (modeled or wall deadlines, the live-frame cap): they exist to stop a
   sweep from burning capped time, and every remaining task shares them.
   Per-run resource exhaustion (task budget, modeled memory) only says
   this POINT is too big — the rest of the sweep is unaffected, so
   [run_collect] contains it like any other per-task failure. *)
let is_fatal_budget_exn = function
  | Vc_core.Vc_error.Error
      {
        kind =
          Vc_core.Vc_error.Budget_exceeded
            {
              resource =
                ( Vc_core.Vc_error.Deadline_cycles | Vc_core.Vc_error.Deadline_wall
                | Vc_core.Vc_error.Live_frames );
              _;
            };
        _;
      } ->
      true
  | _ -> false

let run ~jobs tasks =
  let n = List.length tasks in
  if jobs <= 1 || n < 2 then
    List.iter (fun f -> f ()) tasks
  else begin
    let tasks = Array.of_list tasks in
    let next = Atomic.make 0 in
    let failure : exn option Atomic.t = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else
          match tasks.(i) () with
          | () -> ()
          | exception exn ->
              (* keep the first failure; losing later ones is fine — the
                 sweep aborts on any *)
              ignore (Atomic.compare_and_set failure None (Some exn))
      done
    in
    let domains = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    match Atomic.get failure with Some e -> raise e | None -> ()
  end

let run_collect ~jobs tasks =
  let n = List.length tasks in
  let lock = Mutex.create () in
  let failures = ref [] in
  let fatal : exn option Atomic.t = Atomic.make None in
  let contain i exn =
    if is_fatal_budget_exn exn then
      (* deadline-like budgets abort the queue — containing them would let
         a sweep keep burning time the user explicitly capped *)
      ignore (Atomic.compare_and_set fatal None (Some exn))
    else begin
      let error = Vc_core.Vc_error.of_exn ~phase:Vc_core.Vc_error.Execute exn in
      Log.warn (fun m ->
          m "task %d failed: %s" i (Vc_core.Vc_error.to_string error));
      Mutex.protect lock (fun () -> failures := { index = i; error } :: !failures)
    end
  in
  let exec i f = match f () with () -> () | exception exn -> contain i exn in
  if jobs <= 1 || n < 2 then
    List.iteri (fun i f -> if Atomic.get fatal = None then exec i f) tasks
  else begin
    let tasks = Array.of_list tasks in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get fatal <> None then continue := false
        else exec i tasks.(i)
      done
    in
    let domains = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  match Atomic.get fatal with
  | Some e -> raise e
  | None -> List.sort (fun a b -> compare a.index b.index) !failures

(* ------------------------------------------------------------------ *)
(* Persistent worker pool (the serve daemon's execution substrate).

   Unlike [run]/[run_collect] — which spawn domains per call and join
   them before returning — a [worker_pool] keeps its domains alive across
   an unbounded stream of independently submitted jobs, so per-request
   state that is expensive to warm (shuffle/prefix tables, the sweep
   memo, the run cache) stays hot between requests.

   Containment contract: a job that raises NEVER kills its worker domain;
   the exception is logged and the domain moves on to the next job.
   Callers that need the error (the daemon does) must catch inside the
   job closure — by the time a job runs there is no submitter to
   re-raise into. *)

type worker_pool = {
  wp_lock : Mutex.t;
  wp_nonempty : Condition.t;  (* signaled on submit and on drain *)
  wp_idle : Condition.t;  (* signaled when the pool goes quiescent *)
  wp_queue : (unit -> unit) Queue.t;
  mutable wp_pending : int;  (* submitted, not yet started *)
  mutable wp_active : int;  (* currently executing *)
  mutable wp_draining : bool;
  mutable wp_domains : unit Domain.t list;
}

let pool_worker wp () =
  let running = ref true in
  while !running do
    Mutex.lock wp.wp_lock;
    while Queue.is_empty wp.wp_queue && not wp.wp_draining do
      Condition.wait wp.wp_nonempty wp.wp_lock
    done;
    if Queue.is_empty wp.wp_queue then begin
      (* draining and nothing left: exit the domain *)
      running := false;
      Mutex.unlock wp.wp_lock
    end
    else begin
      let job = Queue.pop wp.wp_queue in
      wp.wp_pending <- wp.wp_pending - 1;
      wp.wp_active <- wp.wp_active + 1;
      Mutex.unlock wp.wp_lock;
      (try job ()
       with exn ->
         (* worker-death containment: the job dies, the domain survives *)
         Log.warn (fun m ->
             m "pool job died (contained): %s" (Printexc.to_string exn)));
      Mutex.lock wp.wp_lock;
      wp.wp_active <- wp.wp_active - 1;
      if wp.wp_active = 0 && Queue.is_empty wp.wp_queue then
        Condition.broadcast wp.wp_idle;
      Mutex.unlock wp.wp_lock
    end
  done

let start_pool ~workers () =
  let wp =
    {
      wp_lock = Mutex.create ();
      wp_nonempty = Condition.create ();
      wp_idle = Condition.create ();
      wp_queue = Queue.create ();
      wp_pending = 0;
      wp_active = 0;
      wp_draining = false;
      wp_domains = [];
    }
  in
  wp.wp_domains <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (pool_worker wp));
  wp

let submit wp job =
  Mutex.protect wp.wp_lock (fun () ->
      if wp.wp_draining then `Draining
      else begin
        Queue.push job wp.wp_queue;
        wp.wp_pending <- wp.wp_pending + 1;
        Condition.signal wp.wp_nonempty;
        `Queued
      end)


let pool_quiesce wp =
  Mutex.lock wp.wp_lock;
  while wp.wp_pending > 0 || wp.wp_active > 0 do
    Condition.wait wp.wp_idle wp.wp_lock
  done;
  Mutex.unlock wp.wp_lock

let drain_pool wp =
  Mutex.protect wp.wp_lock (fun () ->
      wp.wp_draining <- true;
      Condition.broadcast wp.wp_nonempty);
  List.iter Domain.join wp.wp_domains;
  wp.wp_domains <- []
