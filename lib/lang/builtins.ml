type fn = Unary of (int -> int) | Binary of (int -> int -> int)

let mask32 = 0xFFFFFFFF

(* murmur3-style 32-bit finalizer over (state, site); result in [0, 2^31).
   This is the hash UTS derives child states from (Rng.mix32 aliases it),
   exposed as a builtin so the uts benchmark is expressible in the DSL. *)
let mix32 state site =
  let h = ref ((state lxor (site * 0x9E3779B9)) land mask32) in
  h := (!h lxor (!h lsr 16)) land mask32;
  h := !h * 0x85EBCA6B land mask32;
  h := (!h lxor (!h lsr 13)) land mask32;
  h := !h * 0xC2B2AE35 land mask32;
  h := (!h lxor (!h lsr 16)) land mask32;
  !h land 0x7FFFFFFF

(* DSL shift semantics, shared by the tree interpreter, the closure and
   SoA compilers, and the constant folder (they must agree or folding
   changes program meaning): the count is taken modulo 64, and counts
   beyond the 62 OCaml guarantees saturate — [shl] overflows to 0, [shr]
   to the sign.  (A previous version masked the count with 62 instead of
   63, silently zeroing the low bit: every odd shift count — including
   the ubiquitous [<< 1] — became a no-op.) *)
let shl a b =
  let s = b land 63 in
  if s > 62 then 0 else a lsl s

let shr a b =
  let s = b land 63 in
  if s > 62 then a asr 62 else a asr s

let popcount b =
  let rec go acc b = if b = 0 then acc else go (acc + (b land 1)) (b lsr 1) in
  go 0 b

let table =
  [
    ("abs", Unary abs);
    ("min2", Binary (fun (a : int) b -> if a <= b then a else b));
    ("max2", Binary (fun (a : int) b -> if a >= b then a else b));
    ("popcount", Unary popcount);
    ("bit", Binary (fun a b -> (a lsr b) land 1));
    ("sq", Unary (fun a -> a * a));
    ("mix32", Binary mix32);
  ]

let arity = function Unary _ -> 1 | Binary _ -> 2

let apply fn args =
  match fn with
  | Unary f -> f args.(0)
  | Binary f -> f args.(0) args.(1)

let find name = List.assoc_opt name table

let names = List.map fst table
