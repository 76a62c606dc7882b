type site = Compact | Convert | Alloc | Cache

let all_sites = [ Compact; Convert; Alloc; Cache ]

let num_sites = List.length all_sites

let site_name = function
  | Compact -> "compact"
  | Convert -> "convert"
  | Alloc -> "alloc"
  | Cache -> "cache"

let site_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "compact" | "compaction" -> Some Compact
  | "convert" | "conversion" -> Some Convert
  | "alloc" | "block" | "block-alloc" -> Some Alloc
  | "cache" | "cache-io" -> Some Cache
  | _ -> None

let index = function Compact -> 0 | Convert -> 1 | Alloc -> 2 | Cache -> 3

let err_site = function
  | Compact -> Vc_error.Compaction
  | Convert -> Vc_error.Conversion
  | Alloc -> Vc_error.Block_alloc
  | Cache -> Vc_error.Cache_io

type plan = {
  seed : int;
  period : int;  (** 0 = disabled; otherwise a site faults ~1/period calls *)
  sites : bool array;
  calls : int Atomic.t array;
  fired : int Atomic.t array;
}

let none =
  {
    seed = 0;
    period = 0;
    sites = Array.make num_sites false;
    calls = Array.init num_sites (fun _ -> Atomic.make 0);
    fired = Array.init num_sites (fun _ -> Atomic.make 0);
  }

let make ?(rate = 0.25) ~seed ~sites () =
  if not (Float.is_finite rate) || rate <= 0.0 || rate > 1.0 then
    invalid_arg "Fault.make: rate must be in (0, 1]";
  let enabled = Array.make num_sites false in
  List.iter (fun s -> enabled.(index s) <- true) sites;
  {
    seed;
    period = (if sites = [] then 0 else max 1 (int_of_float (Float.round (1.0 /. rate))));
    sites = enabled;
    calls = Array.init num_sites (fun _ -> Atomic.make 0);
    fired = Array.init num_sites (fun _ -> Atomic.make 0);
  }

let armed plan = plan.period > 0

let armed_at plan site = plan.period > 0 && plan.sites.(index site)

(* splitmix-style avalanche over (seed, site, call#): the fault pattern is
   a deterministic function of the plan and the call sequence, so a chaos
   run replays exactly and a retried task (whose calls resume at a later
   count) sees a different — usually fault-free — pattern. *)
let mix seed site k =
  let h = ref (seed lxor (site * 0x9E3779B9) lxor (k * 0x85EBCA6B) land max_int) in
  h := (!h lxor (!h lsr 15)) * 0x2C1B3C6D land max_int;
  h := (!h lxor (!h lsr 12)) * 0x297A2D39 land max_int;
  !h lxor (!h lsr 15)

let trip plan site ~phase ~hint ~detail =
  if armed_at plan site then begin
    let i = index site in
    let k = Atomic.fetch_and_add plan.calls.(i) 1 in
    if mix plan.seed i k mod plan.period = 0 then begin
      Atomic.incr plan.fired.(i);
      Vc_error.fail ~phase (err_site site) hint "injected fault #%d at %s: %s" k
        (site_name site) (detail ())
    end
  end

(* Derive an independent sub-plan: same sites and rate, fresh counters,
   and a seed avalanched from (seed, salt) — channel [num_sites] so a
   sub-plan seed never collides with a site's own fault pattern.  Each
   parallel chunk runs under its own sub-plan, so the fault pattern is a
   function of the chunk index alone, not of which domain (or in what
   order) the chunk happened to execute. *)
let split plan ~salt =
  if plan.period = 0 then none
  else
    {
      plan with
      seed = mix plan.seed num_sites salt;
      calls = Array.init num_sites (fun _ -> Atomic.make 0);
      fired = Array.init num_sites (fun _ -> Atomic.make 0);
    }

let total_fired plan =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 plan.fired

let parse_sites spec =
  if String.trim spec = "" || String.lowercase_ascii (String.trim spec) = "all" then
    Ok all_sites
  else
    let names = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> go acc rest
      | name :: rest -> (
          match site_of_string name with
          | Some s -> go (if List.mem s acc then acc else s :: acc) rest
          | None ->
              Error
                (Printf.sprintf "unknown fault site %S (expected %s)" name
                   (String.concat "|" (List.map site_name all_sites))))
    in
    go [] names

(* VC_FAULT_SEED arms a plan for the whole process; VC_FAULT_SITES (comma
   list, default all) and VC_FAULT_RATE refine it. *)
let of_env () =
  match Sys.getenv_opt "VC_FAULT_SEED" with
  | None -> none
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | None -> none
      | Some seed ->
          let sites =
            match Sys.getenv_opt "VC_FAULT_SITES" with
            | None -> all_sites
            | Some spec -> (
                match parse_sites spec with Ok sites -> sites | Error _ -> all_sites)
          in
          let rate =
            match Option.bind (Sys.getenv_opt "VC_FAULT_RATE") float_of_string_opt with
            | Some r when Float.is_finite r && r > 0.0 && r <= 1.0 -> r
            | _ -> 0.25
          in
          make ~rate ~seed ~sites ())
