(** The persistent on-disk run cache ([.vc-cache/runs.json]).

    Every sweep point is a deterministic simulation, so its report can be
    reused across process invocations: [vcilk table 2] after [vcilk all]
    does zero engine simulations.  Entries are keyed by
    {!Sweep.key_string}, the encoding of a modeled {!Sweep.point} plus
    the workload scale; the file carries a schema version and is
    discarded wholesale on mismatch (the invalidation rule — bump
    {!version} whenever the report layout or key schema changes).

    Wall-clock fields are excluded from the cached payload: a report
    loaded from the cache has [wall_seconds = 0.0], so cached and fresh
    reports compare equal under {!Vc_core.Report.equal}.

    A handle is domain-safe: [find]/[add] may be called concurrently from
    pool workers. *)

type t

val version : int
(** Current schema version of the cache file. *)

val json_of_report : Vc_core.Report.t -> Jsonx.t

val report_of_json : Jsonx.t -> (Vc_core.Report.t, string) result
(** Decode one cached report.  Malformed payloads (wrong arity pairs or
    triples, type mismatches) yield [Error msg] — never an exception —
    so {!load} can skip corrupt entries individually. *)

val load : ?faults:Vc_core.Fault.plan -> dir:string -> unit -> t
(** Open (or initialize) the cache rooted at [dir].  A missing, unreadable,
    corrupt, or version-mismatched [runs.json] yields an empty cache; the
    directory is created lazily by {!persist}.  [faults] arms the
    [Cache] injection site on the file read; an injected load fault is
    contained as "unreadable" (empty cache). *)

val find : t -> string -> Vc_core.Report.t option

val add : t -> string -> Vc_core.Report.t -> unit
(** Record a freshly simulated report under [key] and mark the handle
    dirty.  Last write wins on duplicate keys. *)

val entries : t -> int

val save_atomic : ?faults:Vc_core.Fault.plan -> path:string -> string -> unit
(** [save_atomic ~path payload] writes [payload] to [path] crash-safely:
    the bytes go to a pid-unique temp file in the same directory, are
    flushed and fsynced, then renamed over the target — readers never
    observe a partial file, and a failed write removes its temp file.
    The parent directory is created if missing (one level).
    [faults] arms the [Cache] injection site; injected persist faults
    with a [Retry] hint are retried up to 3 attempts before the typed
    error propagates. *)

val persist : ?faults:Vc_core.Fault.plan -> t -> unit
(** Write [dir/runs.json] crash-safely if any entry was added since
    [load]: the payload goes to a pid-unique temp file in the same
    directory, is flushed and fsynced, then renamed over the target —
    readers never observe a partial file, and a failed write removes its
    temp file.  No-op on a clean handle.  [faults] arms the [Cache]
    injection site; injected persist faults (hint [Retry]) are retried
    up to 3 attempts before the typed error propagates. *)
