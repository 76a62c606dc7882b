(** Closure compiler for the DSL: resolves variables to slots once, then
    evaluates with no name lookups.

    Both the blocked interpreter and the DSL→Spec compiler need to run
    method bodies once per thread per level; compiling to closures keeps
    that cheap.  Booleans are represented as 0/1 ints at run time (the
    validator has already type-checked the program). *)

exception Runtime_error of string

type layout
(** Slot assignment: parameters map to frame slots, locals to a scratch
    array. *)

val layout_of : Vc_lang.Ast.program -> layout
(** Validates the program ({!Vc_lang.Validate.check_exn}) and assigns
    slots. *)

val params : layout -> string array
val locals : layout -> string array

type rt = { frame : int array; locals : int array }
(** Runtime state of one thread: [frame] holds the parameters (length =
    number of params), [locals] is scratch (length = number of locals). *)

val make_rt : layout -> rt
(** Fresh runtime state with zeroed slots (reusable across threads by
    overwriting [frame] contents and calling {!reset_locals}). *)

val reset_locals : rt -> unit

val compile_expr : layout -> Vc_lang.Ast.expr -> rt -> int
(** Booleans evaluate to 0/1.  Short-circuits [&&] and [||].  A builtin
    call evaluates its one or two arguments left to right and calls the
    {!Vc_lang.Builtins.fn} directly, with no argument array. *)

val compile_stmt :
  layout ->
  reduce:(string -> int -> unit) ->
  spawn:(site:int -> int array -> unit) ->
  Vc_lang.Ast.stmt ->
  rt ->
  unit
(** [spawn] receives the site id and the evaluated child arguments.
    [return] statements abort the rest of the compiled statement. *)

(** SoA compiled backend: a blocked program specialized once into step
    kernels that execute a whole level over unboxed structure-of-arrays
    frames — no per-instruction dispatch, no per-thread {!rt} allocation,
    no frame blitting.  Guards and builtin calls compile to one closure
    each: an [if]/[while] condition [e != 0] tests [e] itself, an [if]
    without [else] makes no call for the missing branch, and a builtin
    applied to a column and a constant reads the column and calls the
    function in one closure.  {!Backend.compiled} drives these
    kernels with the Fig. 6 scheduling; see that module for the
    engine-level contract. *)
module Soa : sig
  val seg_rows : int
  (** Rows per segment (a constant). *)

  val store_cap : int
  (** The most free columns the level store keeps (512 columns of
      {!seg_rows} ints, 4 MiB). *)

  val stored : unit -> int
  (** Free columns the process-wide level store holds now (at most
      {!store_cap}). *)

  val allocated : unit -> int
  (** Columns allocated so far, process-wide: a push takes a segment's
      columns from the store and allocates only those it cannot supply. *)

  type buf
  (** An SoA level: a sequence of segments, each one [seg_rows]-row int
      column per frame field.  The level representation of both IR
      steppers (this module's kernels and {!Blocked_interp}'s closures).
      Growing a level never copies a row: a push into a full segment takes
      the next segment's columns from the level store, which every level
      of every run on every domain shares (mutex-guarded). *)

  val make_buf : nfields:int -> buf
  (** An empty level of [nfields]-field frames, holding no segment until
      its first push. *)

  val size : buf -> int

  val clear : buf -> unit
  (** Empty the level and return its columns to the store at once (the
      store keeps at most {!store_cap}; the GC takes the rest). *)

  val push : buf -> int array -> unit
  (** Append one frame (length ≥ the level's [nfields]). *)

  val iter_segments : buf -> (int array array -> int -> unit) -> unit
  (** [iter_segments b f] calls [f cols rows] on each segment, oldest
      first: rows [0 .. rows - 1] of [cols.(field)] are the level's next
      rows in push order. *)

  val frames : buf -> int array list
  (** All rows, in order, as fresh frame arrays (frontier extraction). *)

  val of_frames : nfields:int -> int array list -> buf
  (** A level holding the given root frames.  Raises [Invalid_argument]
      unless every frame has exactly [nfields] fields. *)

  type inst = {
    nparams : int;  (** fields per frame: [make_buf ~nfields:nparams] *)
    num_spawns : int;
    step : src:buf -> blocked:bool -> next:buf -> sites:buf array -> int;
        (** Execute one whole level: base rows run their base kernel,
            inductive rows push children into [next] (bfs flavor) or
            [sites] (blocked flavor, one buffer per spawn site).  Returns
            the number of base rows.  [sites] must have [num_spawns]
            entries when [blocked].  [src]'s rows are consumed: the caller
            may clear and reuse it afterwards. *)
  }

  val instantiate : Blocked_ast.t -> reducers:Vc_lang.Reducer.set -> inst
  (** Compile the blocked program against a concrete reducer set (cells
      are resolved at compile time).  The instance owns mutable scratch —
      use it from one domain at a time; parallel schedulers instantiate
      once per domain. *)
end
