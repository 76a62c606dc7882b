module Store = struct
  (* Free column sets by power-of-two row class: [free.(k)] holds sets of
     columns of exactly [1 lsl k] rows, one column per field. *)
  type t = {
    free : int array array list array;
    mutable allocated : int;
    mutable poison : int option;
  }

  let create () = { free = Array.make Sys.int_size []; allocated = 0; poison = None }
  let allocated t = t.allocated

  let rec class_of rows k = if 1 lsl k >= rows then k else class_of rows (k + 1)

  (* The smallest free set of at least [1 lsl k] rows, or a fresh one. *)
  let take t ~nfields k =
    let rec find j =
      if j >= Array.length t.free then begin
        let rows = 1 lsl k in
        t.allocated <- t.allocated + (nfields * rows);
        let v = Option.value t.poison ~default:0 in
        Array.init nfields (fun _ -> Array.make rows v)
      end
      else
        match t.free.(j) with
        | cols :: rest ->
            t.free.(j) <- rest;
            cols
        | [] -> find (j + 1)
    in
    find k

  let fill_set v cols = Array.iter (fun col -> Array.fill col 0 (Array.length col) v) cols

  let give t cols =
    Option.iter (fun v -> fill_set v cols) t.poison;
    let k = class_of (Array.length cols.(0)) 0 in
    t.free.(k) <- cols :: t.free.(k)

  let poison t v =
    t.poison <- Some v;
    Array.iter (List.iter (fill_set v)) t.free
end

type t = {
  label : string;
  schema : Schema.t;
  mutable data : int array array;  (** host columns, [rows] rows each *)
  mutable rows : int;
  mutable fill : int;  (** size at the last {!release}: sizes the next take *)
  mutable size : int;
  capacity : int;
  base_addr : int;
  elem_bytes : int;
  store : Store.t option;
}

let create ?(label = "block") ?store addr ~schema ~isa ~capacity =
  if capacity < 0 then invalid_arg "Block.create: negative capacity";
  let capacity = Int.max capacity 1 in
  let elem_bytes = Schema.elem_bytes schema ~isa in
  let nfields = Schema.num_fields schema in
  let base_addr = Addr.alloc addr ~bytes:(capacity * nfields * elem_bytes) in
  (* a pooled block takes its columns from the store at its first push;
     an unpooled one owns columns for its whole capacity *)
  let rows = match store with Some _ -> 0 | None -> capacity in
  {
    label;
    schema;
    data = (if rows = 0 then [||] else Array.init nfields (fun _ -> Array.make rows 0));
    rows;
    fill = 0;
    size = 0;
    capacity;
    base_addr;
    elem_bytes;
    store;
  }

let schema t = t.schema
let size t = t.size
let capacity t = t.capacity
let label t = t.label
let clear t = t.size <- 0
let elem_bytes t = t.elem_bytes

let get t ~field ~row = t.data.(field).(row)
let set t ~field ~row v = t.data.(field).(row) <- v

(* Move the rows to columns of at least [size + 1] rows: the first take
   after a release is sized by the previous fill, later ones double. *)
let grow t =
  let want = Int.max (t.size + 1) (if t.rows = 0 then t.fill else 2 * t.rows) in
  let k = Store.class_of want 0 in
  let nfields = Schema.num_fields t.schema in
  let cols =
    match t.store with
    | Some s -> Store.take s ~nfields k
    | None -> Array.init nfields (fun _ -> Array.make (1 lsl k) 0)
  in
  if t.rows > 0 then begin
    Array.iteri (fun f old -> Array.blit old 0 cols.(f) 0 t.size) t.data;
    Option.iter (fun s -> Store.give s t.data) t.store
  end;
  t.data <- cols;
  t.rows <- Array.length cols.(0)

let release t =
  t.fill <- t.size;
  t.size <- 0;
  if t.rows > 0 then begin
    Option.iter (fun s -> Store.give s t.data) t.store;
    t.data <- [||];
    t.rows <- 0
  end

let push t frame =
  let row = t.size in
  if row >= t.capacity then
    invalid_arg (Printf.sprintf "Block.push: %s full (capacity %d)" t.label t.capacity);
  if row >= t.rows then grow t;
  for f = 0 to Array.length frame - 1 do
    t.data.(f).(row) <- frame.(f)
  done;
  t.size <- row + 1

let reserve t =
  let row = t.size in
  if row >= t.capacity then
    invalid_arg (Printf.sprintf "Block.reserve: %s full (capacity %d)" t.label t.capacity);
  if row >= t.rows then grow t;
  t.size <- row + 1;
  row

let truncate t n =
  if n < 0 || n > t.size then invalid_arg "Block.truncate";
  t.size <- n

(* SoA: field columns are contiguous, one after another. *)
let field_addr t ~field ~row =
  t.base_addr + (field * t.capacity * t.elem_bytes) + (row * t.elem_bytes)

let ensure_room t addr ~extra =
  let needed = t.size + extra in
  if needed <= t.capacity then t
  else begin
    let capacity = Int.max needed (2 * t.capacity) in
    let fresh =
      {
        t with
        capacity;
        base_addr =
          Addr.alloc addr ~bytes:(capacity * Schema.num_fields t.schema * t.elem_bytes);
      }
    in
    (* the host columns now belong to [fresh] *)
    t.data <- [||];
    t.rows <- 0;
    t.size <- 0;
    fresh
  end

let copy_row ~src ~src_row ~dst =
  let row = reserve dst in
  Array.iteri (fun f col -> dst.data.(f).(row) <- col.(src_row)) src.data
