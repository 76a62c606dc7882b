(** The differential driver: one generated program through every engine.

    The oracle is the sequential {!Vc_lang.Interp}; the candidates are
    the cost-model {!Vc_core.Engine} (three strategies), the blocked and
    compiled wall-clock {!Vc_core.Backend}s (six-field report equality
    between them), the hybrid {!Vc_core.Domain_sched} at domains {1, 4},
    and fault-armed {!Vc_core.Supervisor} recovery on both the engine and
    the compiled backend (whose recovered run must equal its fault-free
    run on all six fields).  Any mismatch is a {!outcome.Diverge}; runs
    the oracle itself cannot complete (runtime error, task budget) are
    {!outcome.Skip}ped, as are OOM/budget candidates.

    [plant] arms a deliberate mutation of the program fed to the {e
    compiled} backend only — the mutation smoke test that proves the
    harness can catch and shrink a codegen bug:
    - {!Shl_trunc} re-creates the historical shift-count truncation
      peephole ([count land 62]): every shift count is masked even, so
      odd and saturating counts diverge;
    - {!Spawn_skew} deepens every spawn's ranking decrement by one, so
      task counts diverge on trees of depth >= 2 — its minimal
      reproducer is a 7-node program, which the shrinker must reach. *)

type plant = Shl_trunc | Spawn_skew

val plant_name : plant -> string
val plant_of_string : string -> plant option

val mutate : plant -> Vc_lang.Ast.program -> Vc_lang.Ast.program
(** The planted bug as a source-to-source mutation (still valid and
    terminating). *)

type outcome =
  | Agree of { checks : int }  (** comparisons performed *)
  | Diverge of { stage : string; detail : string }
  | Skip of string  (** oracle could not run this case *)

val check :
  ?plant:plant ->
  ?domains:int list ->
  ?fault_seeds:int list ->
  ?max_tasks:int ->
  Vc_lang.Ast.program ->
  int list ->
  outcome
(** Defaults: no plant, domains [[1; 4]], fault seeds [[1]], oracle task
    budget 100k (candidates get 2x). *)

val failing : ?plant:plant -> Vc_lang.Ast.program -> int list -> bool
(** [check] returned [Diverge] — the shrinker's keep-predicate. *)
