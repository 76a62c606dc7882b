(** Pretty-printer for the concrete syntax.

    [Parser.parse_string (program_to_string p)] reproduces [p] exactly
    (spawn ids are assigned in syntactic order on both sides) — a
    round-trip property the test suite checks on random programs. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_program : Format.formatter -> Ast.program -> unit

val program_to_string : Ast.program -> string
