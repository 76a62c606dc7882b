(** The target language of the Fig. 7 rewrite rules.

    A rewritten method body is an ordinary statement tree except that
    [return] has become [Continue] (move on to the block's next thread) and
    each [spawn] has become an enqueue onto the next-level thread block:
    the single [next] block in the breadth-first flavor, the per-site
    [nexts[id]] block in the blocked flavor. *)

type bstmt =
  | BSkip  (** no-op *)
  | Continue  (** rewritten [return] *)
  | BSeq of bstmt * bstmt
  | BAssign of string * Vc_lang.Ast.expr
  | BIf of Vc_lang.Ast.expr * bstmt * bstmt
  | BWhile of Vc_lang.Ast.expr * bstmt
  | BReduce of string * Vc_lang.Ast.expr
  | NextAdd of Vc_lang.Ast.expr list
      (** bfs flavor: [next.add(new Thread(e1, ..., ek))] *)
  | NextsAdd of int * Vc_lang.Ast.expr list
      (** blocked flavor: [nexts[id].add(new Thread(e1, ..., ek))] *)

type flavor = Bfs | Blocked

type bmethod = {
  flavor : flavor;
  bname : string;  (** e.g. [fib_bfs], [fib_blocked] *)
  fields : string list;  (** the Thread struct: one field per parameter *)
  is_base : Vc_lang.Ast.expr;
  base : bstmt;
  inductive : bstmt;
}

type t = {
  source : Vc_lang.Ast.program;
  thread_fields : string list;
  num_spawns : int;
  bfs_method : bmethod;
  blocked_method : bmethod;
}

val pp_bstmt : Format.formatter -> bstmt -> unit

val pp : Format.formatter -> t -> unit
(** The full transformed program as the paper's pseudo-code (compare
    Figs. 3 and 4(b)): Thread struct, both methods with their ThreadBlock
    plumbing and the Fig. 6 threshold dispatch, and the entry function. *)

val to_string : t -> string
