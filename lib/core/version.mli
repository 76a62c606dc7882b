(** Package version and build provenance, printed by [vcilk version]
    and [vcilk --version]. *)

val version : string
(** The package version ("1.0.0"). *)

val git_describe : unit -> string option
(** [git describe --always --dirty --tags] of the enclosing checkout;
    [None] when git or the repository is unavailable.  Never raises. *)

val describe : unit -> string
(** [version], suffixed with ["+<git describe>"] when available. *)
