(** Delta-debugging shrinker over DSL programs.

    {!minimize} greedily applies the first structural edit (in a fixed,
    deterministic order) that keeps the candidate {e valid} — passes
    {!Vc_lang.Validate.check}, holds a {!Vc_lang.Termination.Terminates}
    certificate, and still spawns — {e and} keeps the caller's failure
    predicate true, restarting until no edit is accepted.  Every accepted
    edit strictly decreases the (AST size, literal magnitude) measure, so
    the loop terminates; the result is a local minimum, canonicalized
    with {!Gen.normalize}/{!Gen.renumber} so it prints and reparses
    exactly.

    Shrinking is pure: a fixed (program, args, predicate) always yields
    the same minimum. *)

val valid : Vc_lang.Ast.program -> bool
(** [Validate.check] ok, [Termination.check] = [Terminates], and at least
    one spawn site remains (the generator's contract). *)

val minimize :
  keep:(Vc_lang.Ast.program -> int list -> bool) ->
  Vc_lang.Ast.program ->
  int list ->
  Vc_lang.Ast.program * int list
(** [minimize ~keep p args] assumes [keep p args = true] (the original
    case fails) and returns the smallest reachable failing case, after
    at most 10,000 accepted edits (a safety net). *)
