(** Stateless, non-recursive functions callable from expressions.

    Fig. 2 allows expressions to call "arbitrary, stateless, non-recursive
    functions" ([f_p]).  This registry provides a fixed library of such
    functions over integers. *)

type fn = Unary of (int -> int) | Binary of (int -> int -> int)
(** Every builtin takes one or two integers.  The compilers match on the
    arity and call the function directly, with no argument array. *)

val arity : fn -> int

val apply : fn -> int array -> int
(** [apply fn args] for the tree walkers, which evaluate arguments into an
    array.  [args] must hold exactly [arity fn] values; callers check this
    (or rely on {!Validate}) first. *)

val mix32 : int -> int -> int
(** [mix32 state site]: well-mixed 32-bit hash of a node state and a
    child index; result in [0, 2^31).  Registered as the ["mix32"]
    builtin (and aliased by [Vc_bench.Rng.mix32]) so hash-driven
    benchmarks like uts are expressible in the DSL. *)

val shl : int -> int -> int

val shr : int -> int -> int
(** Shared semantics of the DSL [<<] / [>>] operators: the count is taken
    modulo 64, counts above 62 saturate ([shl] to 0, [shr] to the sign).
    The tree interpreter, both compilers and the constant folder all
    evaluate shifts through these, so folding cannot change meaning. *)

val find : string -> fn option

val names : string list
(** All registered builtin names. *)
