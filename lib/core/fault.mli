(** Deterministic fault injection for chaos testing.

    A {!plan} decides, purely as a function of its seed and each site's
    call count, which calls to instrumented runtime operations fail with a
    typed {!Vc_error.Error}.  Instrumented sites call {!trip} at their
    entry point — {e before} any semantic side effect — so the affected
    block is still intact and can be re-run with exact results.

    Plans are domain-safe (per-site atomic counters) and replayable: the
    same plan over the same call sequence fires the same faults. *)

type site =
  | Compact  (** stream-compaction partition calls *)
  | Convert  (** AoS↔SoA conversions *)
  | Alloc  (** ThreadBlock allocation / growth *)
  | Cache  (** run-cache file I/O *)

val all_sites : site list
val site_name : site -> string

type plan

val none : plan
(** The disabled plan: {!trip} is a single array read. *)

val make : ?rate:float -> seed:int -> sites:site list -> unit -> plan
(** A plan firing on roughly [rate] (default 0.25) of the calls to each
    listed site, deterministically derived from [seed].  Raises
    [Invalid_argument] unless [0 < rate <= 1]. *)

val of_env : unit -> plan
(** Build a plan from [VC_FAULT_SEED] (required; {!none} when unset or
    unparseable), [VC_FAULT_SITES] (comma-separated site names, default
    all) and [VC_FAULT_RATE] (default 0.25). *)

val parse_sites : string -> (site list, string) result
(** Parse a comma-separated site list (["all"] or [""] = every site). *)

val split : plan -> salt:int -> plan
(** An independent sub-plan with the same sites and rate, fresh counters,
    and a seed deterministically derived from [salt] — one per parallel
    chunk, so fault patterns do not depend on execution interleaving.
    Splitting a disarmed plan yields {!none}. *)

val armed : plan -> bool

val trip :
  plan ->
  site ->
  phase:Vc_error.phase ->
  hint:Vc_error.hint ->
  detail:(unit -> string) ->
  unit
(** Count one call at [site]; raise a typed fault on the calls the plan
    selects.  No-op when the plan is disarmed (for [site]).  [detail] is
    forced only when a fault fires, so call sites pay nothing to describe
    the calls that do not. *)

val total_fired : plan -> int
