(** Closure interpreter for the {e transformed} program: the level stepper
    behind the "blocked" wall-clock backend.

    Each flavor body of a {!Blocked_ast.t} — the output of the Fig. 7
    rewrite — compiles once into per-thread closures, one closure call per
    AST node.  Levels are the same {!Codegen.Soa.buf} structure-of-arrays
    buffers the compiled stepper uses: each thread copies its row into a
    private frame, runs the closures, and appends its children column-wise
    to the destination buffers, so a thread allocates nothing.  The Fig. 6
    schedule (bfs levels, the switch to per-site blocked execution at
    [max_block], re-expansion), budgets and fault recovery belong to
    {!Backend}, which drives this stepper and
    {!Codegen.Soa}'s compiled one through the same scheduler.

    This interpreter is the semantic half of the reproduction: the test
    suite checks that for every program and strategy it produces exactly
    the reducer values of the sequential {!Vc_lang.Interp}. *)

val instantiate : Blocked_ast.t -> reducers:Vc_lang.Reducer.set -> Codegen.Soa.inst
(** Compile [t]'s flavors into closures that reduce into [reducers].  The
    instance's [step] runs every thread of a level in the bfs or blocked
    flavor.  The instance owns mutable scratch: use it from one domain at
    a time. *)
