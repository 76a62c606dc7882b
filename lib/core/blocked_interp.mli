(** Closure interpreter for the {e transformed} program: the level stepper
    behind the "blocked" wall-clock backend.

    Each flavor body of a {!Blocked_ast.t} — the output of the Fig. 7
    rewrite — compiles once into per-thread closures; a level is a list of
    frames executed one thread at a time.  The Fig. 6 schedule (bfs levels,
    the switch to per-site blocked execution at [max_block], re-expansion),
    budgets and fault quarantine belong to {!Backend}, which drives this
    stepper and {!Codegen.Soa}'s compiled one through the same scheduler.

    This interpreter is the semantic half of the reproduction: the test
    suite checks that for every program and strategy it produces exactly
    the reducer values of the sequential {!Vc_lang.Interp}. *)

type level
(** A list of frames plus its size. *)

val new_level : unit -> level
val size : level -> int
val clear : level -> unit

val frames : level -> int array list
(** In push order. *)

val of_frames : nparams:int -> int array list -> level
(** A level holding copies of the given root frames.  Raises
    [Invalid_argument] if a frame does not have one slot per program
    parameter. *)

type inst = {
  nparams : int;
  num_spawns : int;
  step : src:level -> blocked:bool -> next:level -> sites:level array -> int;
      (** Run every thread of [src] in the bfs ([blocked = false], children
          to [next]) or blocked (children to [sites.(site)]) flavor; returns
          the number of base-case threads.  Consumes [src]: it is empty
          afterwards. *)
  scalar :
    on_task:(depth:int -> base:bool -> unit) -> depth:int -> int array -> unit;
      (** Run one frame's whole subtree depth-first in the bfs flavor,
          calling [on_task] once per thread. *)
}

val instantiate : Blocked_ast.t -> reducers:Vc_lang.Reducer.set -> inst
(** Compile [t]'s flavors into closures that reduce into [reducers]. *)
