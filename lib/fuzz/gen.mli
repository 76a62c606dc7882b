(** Seeded generator of well-typed, provably-terminating DSL programs.

    Every generated program passes {!Vc_lang.Validate.check} and gets a
    {!Vc_lang.Termination.Terminates} certificate by construction: the
    first parameter is the ranking parameter — the base condition always
    carries an [a < cutoff] disjunct, and every spawn site passes
    [a - c] (c >= 1) in its position — so all execution strategies
    terminate with tree depth bounded by the root argument.

    The generator is a plain [Random.State.t -> 'a] function (the same
    shape as [QCheck.Gen.t]), so property tests wrap it directly and the
    CLI fuzzer seeds one state per case for reproducibility.

    The space covers method arity and spawn fan-out up to 3, one or two
    reducers over sum/min/max, guards nested up to 2 deep around spawn
    sites, base-case statements nested up to 3 deep, base thresholds up to
    2, ranking root arguments up to 6, and shift/division edge operands
    (counts at and past the 63-bit saturation point, guarded divisions by
    in-scope variables that may be zero). *)

val program : Random.State.t -> Vc_lang.Ast.program
val args : Vc_lang.Ast.program -> Random.State.t -> int list
val program_and_args : Random.State.t -> Vc_lang.Ast.program * int list

val case : seed:int -> index:int -> unit -> Vc_lang.Ast.program * int list
(** The [index]-th case of stream [seed]: each case owns an independent
    [Random.State], so a reproducer needs only (seed, index). *)

val normalize : Vc_lang.Ast.stmt -> Vc_lang.Ast.stmt
(** Canonicalize to the parser's right-nested, [Skip]-free [Seq] form so
    the print/parse round trip is exact. *)

val renumber : Vc_lang.Ast.stmt -> Vc_lang.Ast.stmt
(** Reassign spawn ids consecutively in syntactic order (the validator's
    invariant) — required after any structural edit. *)

val size : Vc_lang.Ast.program -> int
(** AST node count of the method (base condition + both cases): the
    shrinker's primary measure. *)
