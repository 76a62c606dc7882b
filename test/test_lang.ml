(* Tests for the language front-end: lexer, parser, pretty-printer,
   validator, reducers, builtins, and the sequential interpreter. *)

open Vc_lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fib_src =
  "reducer sum result;\n\
   def fib(n) =\n\
  \  if n < 2 then { reduce(result, n); }\n\
  \  else { spawn fib(n - 1); spawn fib(n - 2); }\n"

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lexer_tokens () =
  let toks = Lexer.tokens_of_string "def f(x) = x := 1; // comment\n /* multi\nline */ <= <<" in
  let kinds = List.map (fun { Token.token; _ } -> token) toks in
  Alcotest.(check (list string))
    "token kinds"
    [ "def"; "f"; "("; "x"; ")"; "="; "x"; ":="; "1"; ";"; "<="; "<<"; "<eof>" ]
    (List.map Token.to_string kinds)

let test_lexer_errors () =
  (try
     ignore (Lexer.tokens_of_string "a $ b");
     Alcotest.fail "expected lexer error"
   with Lexer.Error (msg, _, _) ->
     check_bool "mentions char" true (String.length msg > 0));
  try
    ignore (Lexer.tokens_of_string "/* unterminated");
    Alcotest.fail "expected unterminated comment error"
  with Lexer.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parse_fib () =
  let p = Parser.parse_string fib_src in
  Alcotest.(check (list string)) "params" [ "n" ] p.Ast.mth.Ast.params;
  check_int "spawn sites" 2 (Ast.num_spawns p);
  let sites = Ast.spawn_sites p.Ast.mth.Ast.inductive in
  Alcotest.(check (list int)) "ids in order" [ 0; 1 ]
    (List.map (fun s -> s.Ast.spawn_id) sites);
  match p.Ast.reducers with
  | [ { Ast.red_name = "result"; red_op = Reducer.Sum } ] -> ()
  | _ -> Alcotest.fail "reducer decl"

let test_parse_precedence () =
  let e = Parser.expr_of_string "1 + 2 * 3" in
  check_bool "mul binds tighter"
    true
    (e = Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)));
  let e2 = Parser.expr_of_string "a < 1 && b < 2 || c < 3" in
  (match e2 with Ast.Binop (Ast.Or, _, _) -> () | _ -> Alcotest.fail "|| loosest");
  let e3 = Parser.expr_of_string "-x + 1" in
  (match e3 with
  | Ast.Binop (Ast.Add, Ast.Unop (Ast.Neg, Ast.Var "x"), Ast.Int 1) -> ()
  | _ -> Alcotest.fail "unary tight");
  let e4 = Parser.expr_of_string "(1 + 2) * 3" in
  match e4 with Ast.Binop (Ast.Mul, _, _) -> () | _ -> Alcotest.fail "parens"

let test_parse_optional_else () =
  let p =
    Parser.parse_string
      "def f(a) = if a < 1 then { return; } else { if a > 2 then { spawn f(a - 1); } }"
  in
  match p.Ast.mth.Ast.inductive with
  | Ast.If (_, Ast.Spawn _, Ast.Skip) -> ()
  | _ -> Alcotest.fail "optional else should be Skip"

let test_parse_errors () =
  let expect_error src =
    try
      ignore (Parser.parse_string src);
      Alcotest.failf "expected parse error for %S" src
    with Parser.Error _ -> ()
  in
  expect_error "def f(x) = if x then { } else { spawn g(x); }";
  (* spawn of other method *)
  expect_error "def f(x) = if x < 1 then { return } else { return; }";
  (* missing semicolon *)
  expect_error "reducer prod r; def f(x) = if x < 1 then { } else { }";
  (* unknown reducer op *)
  expect_error "def f(x) = if x < 1 then { } else { } extra"

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip                                           *)

let test_pp_roundtrip_fixed () =
  List.iter
    (fun src ->
      let p = Parser.parse_string src in
      let printed = Pp.program_to_string p in
      let p2 = Parser.parse_string printed in
      check_bool "roundtrip equal" true (p = p2))
    [ fib_src ]

let pp_roundtrip_random =
  QCheck.Test.make ~name:"pp/parse roundtrip on random programs" ~count:300
    Qgen.arbitrary_program_and_args (fun (p, _) ->
      let printed = Pp.program_to_string p in
      Parser.parse_string printed = p)

(* ------------------------------------------------------------------ *)
(* Validator                                                           *)

let valid src = match Validate.check (Parser.parse_string src) with Ok _ -> true | Error _ -> false

let errors_of src =
  match Validate.check (Parser.parse_string src) with
  | Ok _ -> []
  | Error es -> es

let test_validate_ok () =
  check_bool "fib valid" true (valid fib_src);
  let info = Validate.check_exn (Parser.parse_string fib_src) in
  check_int "num spawns" 2 info.Validate.num_spawns;
  Alcotest.(check (list string)) "no locals" [] info.Validate.locals

let test_validate_locals () =
  let info =
    Validate.check_exn
      (Parser.parse_string
         "reducer sum r;\n\
          def f(a) = if a < 1 then { t := a + 1; u := t * 2; reduce(r, u); } else { spawn f(a - 1); }")
  in
  Alcotest.(check (list string)) "locals in order" [ "t"; "u" ] info.Validate.locals

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let expect_violation src fragment =
  match errors_of src with
  | [] -> Alcotest.failf "expected a violation mentioning %S" fragment
  | es ->
      check_bool
        (Printf.sprintf "mentions %s (got: %s)" fragment (String.concat "; " es))
        true
        (List.exists (contains fragment) es)

let test_validate_violations () =
  expect_violation
    "reducer sum r; def f(a) = if a < 1 then { } else { reduce(r, a); spawn f(a - 1); }"
    "reduce outside the base case";
  expect_violation
    "reducer sum r; def f(a) = if a < 1 then { spawn f(a - 1); } else { spawn f(a - 1); }"
    "spawn outside the inductive case";
  expect_violation
    "def f(a) = if a < 1 then { } else { while a > 0 { spawn f(a - 1); } }"
    "statically bounded";
  expect_violation "def f(a) = if a < 1 then { reduce(r, 1); } else { spawn f(a - 1); }"
    "undeclared reducer";
  expect_violation "def f(a) = if a < 1 then { reduce(r, t); } else { spawn f(a - 1); }"
    "before assignment";
  expect_violation "def f(a) = if a < 1 then { a := 2; } else { spawn f(a - 1); }"
    "assignment to parameter";
  expect_violation "def f(a) = if a < 1 then { } else { spawn f(a - 1, 3); }"
    "parameters";
  expect_violation "def f(a) = if a + 1 then { } else { spawn f(a - 1); }" "must be bool";
  expect_violation "def f(a) = if a < 1 then { t := a < 2; } else { spawn f(a - 1); }"
    "must be int";
  expect_violation "def f(a) = if a < 1 then { t := foo(a); } else { spawn f(a - 1); }"
    "unknown builtin";
  expect_violation "def f(a, a) = if a < 1 then { } else { spawn f(a - 1, a); }"
    "duplicate parameter"

let test_validate_if_assignment_intersection () =
  (* a local assigned in only one branch is not definitely assigned *)
  expect_violation
    "reducer sum r;\n\
     def f(a) = if a < 1 then { if a < 0 then { t := 1; } else { skip; } reduce(r, t); } \
     else { spawn f(a - 1); }"
    "before assignment";
  (* assigned in both branches: fine *)
  check_bool "both branches ok" true
    (valid
       "reducer sum r;\n\
        def f(a) = if a < 1 then { if a < 0 then { t := 1; } else { t := 2; } reduce(r, t); } \
        else { spawn f(a - 1); }")

let random_programs_validate =
  QCheck.Test.make ~name:"generated programs validate" ~count:300
    Qgen.arbitrary_program_and_args (fun (p, _) ->
      match Validate.check p with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Reducers and builtins                                               *)

let test_reducers () =
  check_int "sum identity" 0 (Reducer.identity Reducer.Sum);
  check_int "min identity" max_int (Reducer.identity Reducer.Min);
  check_int "apply max" 7 (Reducer.apply Reducer.Max 3 7);
  let set = Reducer.make_set [ ("a", Reducer.Sum); ("b", Reducer.Min) ] in
  Reducer.reduce set "a" 5;
  Reducer.reduce set "a" 3;
  Reducer.reduce set "b" 42;
  (match Reducer.values set with
  | [ ("a", 8); ("b", 42) ] -> ()
  | _ -> Alcotest.fail "reducer values");
  Reducer.reset_set set;
  check_int "reset" 0 (Reducer.value (Reducer.find set "a"));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Reducer.make_set: duplicate reducer \"a\"") (fun () ->
      ignore (Reducer.make_set [ ("a", Reducer.Sum); ("a", Reducer.Max) ]))

let test_builtins () =
  List.iter
    (fun name ->
      match Builtins.find name with
      | Some _ -> ()
      | None -> Alcotest.failf "missing builtin %s" name)
    Builtins.names;
  (match Builtins.find "popcount" with
  | Some fn -> check_int "popcount" 3 (Builtins.apply fn [| 0b10110 |])
  | None -> Alcotest.fail "popcount");
  check_bool "unknown" true (Builtins.find "nope" = None)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let run_fib n =
  let p = Parser.parse_string fib_src in
  let out = Interp.run_validated p [ n ] in
  List.assoc "result" out.Interp.reducers

let test_interp_fib () =
  Alcotest.(check (list int)) "fib 0..10"
    [ 0; 1; 1; 2; 3; 5; 8; 13; 21; 34; 55 ]
    (List.init 11 run_fib)

let test_interp_profile () =
  let p = Parser.parse_string fib_src in
  let out = Interp.run_validated p [ 10 ] in
  let profile = out.Interp.profile in
  (* fib computation tree: 2*fib(n+1)-1 nodes *)
  check_int "tasks" ((2 * 89) - 1) (Profile.tasks profile);
  check_int "base tasks" 89 (Profile.base_tasks profile);
  check_int "depth" 9 (Profile.max_depth profile);
  let levels = Profile.levels profile in
  check_int "level 0" 1 (fst levels.(0));
  check_int "level 1" 2 (fst levels.(1));
  check_int "sum of levels = tasks" (Profile.tasks profile)
    (Array.fold_left (fun acc (t, _) -> acc + t) 0 levels);
  check_bool "kernel ops counted" true (Profile.kernel_op_count profile > 0);
  check_bool "overhead ops counted" true (Profile.overhead_op_count profile > 0);
  let frac = Profile.vectorizable_fraction profile in
  check_bool "fraction in (0,1)" true (frac > 0.0 && frac < 1.0)

let test_interp_statements () =
  (* while loop, locals, builtins, short-circuit *)
  let src =
    "reducer sum r;\n\
     def f(a) =\n\
     if a < 1 then {\n\
     \  t := 0;\n\
     \  i := a + 3;\n\
     \  while i > 0 { t := t + i; i := i - 1; }\n\
     \  if a == 0 && t > 0 then { reduce(r, t + min2(a, 2)); }\n\
     } else { spawn f(a - 2); }"
  in
  let out = Interp.run_validated (Parser.parse_string src) [ 2 ] in
  (* a=2 spawns a=0: t = 3+2+1 = 6, min2(0,2)=0 *)
  check_int "loop result" 6 (List.assoc "r" out.Interp.reducers)

let test_interp_return_semantics () =
  let src =
    "reducer sum r;\n\
     def f(a) =\n\
     if a < 1 then { reduce(r, 1); return; reduce(r, 100); } else { spawn f(a - 1); }"
  in
  let out = Interp.run_validated (Parser.parse_string src) [ 0 ] in
  check_int "return aborts rest" 1 (List.assoc "r" out.Interp.reducers)

let test_interp_runtime_errors () =
  let src = "reducer sum r; def f(a) = if a < 1 then { reduce(r, 1 / a); } else { spawn f(a - 1); }" in
  Alcotest.check_raises "div by zero" (Interp.Runtime_error "division by zero")
    (fun () -> ignore (Interp.run_validated (Parser.parse_string src) [ 0 ]))

let test_interp_task_limit () =
  let p = Parser.parse_string fib_src in
  Alcotest.check_raises "limit" (Interp.Task_limit_exceeded 10) (fun () ->
      ignore (Interp.run ~max_tasks:10 p [ 20 ]))

let test_lexer_positions () =
  (try
     ignore (Lexer.tokens_of_string "a\nb $");
     Alcotest.fail "expected error"
   with Lexer.Error (_, line, col) ->
     check_int "line" 2 line;
     check_int "col" 2 col);
  try
    ignore (Parser.parse_string "def f(x) =\n  if x < 1 then { oops }")
  with Parser.Error (_, line, _) -> check_int "parser line" 2 line

let test_interp_bitops () =
  let src =
    "reducer sum r;\n\
     def f(a) =\n\
     if a < 1 then { reduce(r, (5 & 3) + (5 | 3) + (5 ^ 3) + (1 << 4) + (32 >> 2) + popcount(255)); }\n\
     else { spawn f(a - 1); }"
  in
  let out = Interp.run_validated (Parser.parse_string src) [ 0 ] in
  (* 1 + 7 + 6 + 16 + 8 + 8 = 46 *)
  check_int "bit ops" 46 (List.assoc "r" out.Interp.reducers)

let test_interp_min_max_reducers () =
  let src =
    "reducer min lo;\nreducer max hi;\n\
     def f(a) =\n\
     if a < 1 then { reduce(lo, a * 10); reduce(hi, a * 10); }\n\
     else { spawn f(a - 1); spawn f(a - 2); }"
  in
  let out = Interp.run_validated (Parser.parse_string src) [ 4 ] in
  (* leaves reach a = 0 and a = -1 *)
  check_int "min" (-10) (List.assoc "lo" out.Interp.reducers);
  check_int "max" 0 (List.assoc "hi" out.Interp.reducers)

let test_interp_arity () =
  let p = Parser.parse_string fib_src in
  try
    ignore (Interp.run p [ 1; 2 ]);
    Alcotest.fail "expected arity error"
  with Interp.Runtime_error _ -> ()

let interp_deterministic =
  QCheck.Test.make ~name:"interpreter deterministic on random programs" ~count:150
    Qgen.arbitrary_program_and_args (fun (p, args) ->
      let a = Interp.run ~max_tasks:100_000 p args in
      let b = Interp.run ~max_tasks:100_000 p args in
      a.Interp.reducers = b.Interp.reducers
      && Profile.tasks a.Interp.profile = Profile.tasks b.Interp.profile)

(* ------------------------------------------------------------------ *)
(* AST helpers                                                         *)

let test_ast_sizes () =
  check_int "expr size" 5 (Ast.expr_size (Parser.expr_of_string "1 + 2 * x"));
  check_int "skip size" 0 (Ast.stmt_size Ast.Skip);
  let p = Parser.parse_string fib_src in
  check_bool "stmt size positive" true (Ast.stmt_size p.Ast.mth.Ast.inductive > 0)

let test_ast_seq () =
  check_bool "seq empty" true (Ast.seq [] = Ast.Skip);
  check_bool "seq single" true (Ast.seq [ Ast.Return ] = Ast.Return)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vc_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "fib structure" `Quick test_parse_fib;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "optional else" `Quick test_parse_optional_else;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "pp",
        [ Alcotest.test_case "fixed roundtrip" `Quick test_pp_roundtrip_fixed ]
        @ qsuite [ pp_roundtrip_random ] );
      ( "validate",
        [
          Alcotest.test_case "accepts fib" `Quick test_validate_ok;
          Alcotest.test_case "collects locals" `Quick test_validate_locals;
          Alcotest.test_case "violations" `Quick test_validate_violations;
          Alcotest.test_case "branch assignment" `Quick test_validate_if_assignment_intersection;
        ]
        @ qsuite [ random_programs_validate ] );
      ( "reducer+builtins",
        [
          Alcotest.test_case "reducers" `Quick test_reducers;
          Alcotest.test_case "builtins" `Quick test_builtins;
        ] );
      ( "interp",
        [
          Alcotest.test_case "fib values" `Quick test_interp_fib;
          Alcotest.test_case "profile" `Quick test_interp_profile;
          Alcotest.test_case "statements" `Quick test_interp_statements;
          Alcotest.test_case "return semantics" `Quick test_interp_return_semantics;
          Alcotest.test_case "runtime errors" `Quick test_interp_runtime_errors;
          Alcotest.test_case "task limit" `Quick test_interp_task_limit;
          Alcotest.test_case "arity" `Quick test_interp_arity;
          Alcotest.test_case "error positions" `Quick test_lexer_positions;
          Alcotest.test_case "bit operations" `Quick test_interp_bitops;
          Alcotest.test_case "min/max reducers" `Quick test_interp_min_max_reducers;
        ]
        @ qsuite [ interp_deterministic ] );
      ( "ast",
        [
          Alcotest.test_case "sizes" `Quick test_ast_sizes;
          Alcotest.test_case "seq" `Quick test_ast_seq;
        ] );
    ]
