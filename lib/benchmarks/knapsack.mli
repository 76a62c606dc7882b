(** knapsack: exhaustive 0/1-knapsack search (paper §6.1, benchmark 1).

    At item [i] the task spawns an "include" child and an "exclude" child
    unconditionally (the paper uses the "long" input {e without pruning} to
    ensure determinism), so the computation tree is a perfectly balanced
    binary tree of depth [n] with base cases only at the last level
    (Fig. 9(a)).  Leaves whose weight fits the capacity reduce their value
    into a max reducer.

    Items are generated deterministically from a seed; the reference
    optimum comes from an independent dynamic program. *)

type params = { n : int; capacity_ratio : float; seed : int }

val default : params
(** Scaled: 22 items (2^23 - 1 tasks). *)

val paper : params
(** 31 items (the paper's "long" input has 2^32 - 1 tasks). *)

val items : params -> int array * int array
(** (weights, values), deterministic in [seed]. *)

val capacity : params -> int

val reference : params -> int
(** DP optimum — the expected max-reducer value. *)

val spec : params -> Vc_core.Spec.t
