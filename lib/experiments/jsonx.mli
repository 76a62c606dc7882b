(** A minimal JSON reader/writer for the run cache and the bench harness's
    machine-readable output.

    Deliberately tiny: only what [Run_cache] and [BENCH_sweep.json] need.
    Floats are printed with 17 significant digits so IEEE doubles
    round-trip exactly (cached reports must compare equal to fresh ones),
    which also means non-finite floats are emitted as bare [inf]/[nan]
    tokens — valid for this parser, not for strict JSON consumers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_pretty_string : t -> string
(** Human-readable rendering (2-space indent, trailing newline) for
    artifacts like [bench --compiled-json].  Scalars render
    exactly as in {!to_string}, so values round-trip through {!parse}
    identically in both forms. *)

val default_max_depth : int
(** Default container-nesting budget (512). *)

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse one JSON value (trailing whitespace allowed).  Containers
    nested deeper than [max_depth] (default {!default_max_depth}) yield
    [Error "... nesting too deep"] instead of a stack overflow. *)

exception Decode of string
(** Raised by the typed accessors below on a type mismatch, and by
    decoders built on them ({!Run_cache}, {!Baseline}) for structural
    problems.  Distinct from [Failure] so callers can contain malformed
    persisted data — warn and skip the entry — without masking genuine
    programming errors. *)

val decode_error : ('a, unit, string, 'b) format4 -> 'a
(** [decode_error fmt ...] raises {!Decode} with the formatted message. *)

val member : string -> t -> t
(** Field lookup on an [Obj]; [Null] when absent or not an object. *)

val to_int : t -> int
val to_float : t -> float
(** [to_float] accepts [Int] too (a float that prints without a dot). *)

val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
val obj_fields : t -> (string * t) list
(** All raise {!Decode} on a type mismatch. *)
