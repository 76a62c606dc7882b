type t = {
  label : string;
  schema : Schema.t;
  data : int array array;
  mutable size : int;
  capacity : int;
  base_addr : int;
  elem_bytes : int;
}

let create ?(label = "block") addr ~schema ~isa ~capacity =
  if capacity < 0 then invalid_arg "Block.create: negative capacity";
  let capacity = max capacity 1 in
  let elem_bytes = Schema.elem_bytes schema ~isa in
  let nfields = Schema.num_fields schema in
  let base_addr = Addr.alloc addr ~bytes:(capacity * nfields * elem_bytes) in
  {
    label;
    schema;
    data = Array.init nfields (fun _ -> Array.make capacity 0);
    size = 0;
    capacity;
    base_addr;
    elem_bytes;
  }

let schema t = t.schema
let size t = t.size
let capacity t = t.capacity
let label t = t.label
let clear t = t.size <- 0
let elem_bytes t = t.elem_bytes

let field t i = t.data.(i)

let get t ~field ~row = t.data.(field).(row)
let set t ~field ~row v = t.data.(field).(row) <- v

let push t frame =
  if t.size >= t.capacity then
    invalid_arg (Printf.sprintf "Block.push: %s full (capacity %d)" t.label t.capacity);
  let row = t.size in
  for f = 0 to Array.length frame - 1 do
    t.data.(f).(row) <- frame.(f)
  done;
  t.size <- row + 1

let reserve t =
  if t.size >= t.capacity then
    invalid_arg (Printf.sprintf "Block.reserve: %s full (capacity %d)" t.label t.capacity);
  let row = t.size in
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
    let capacity = max needed (2 * t.capacity) in
    let fresh =
      {
        label = t.label;
        schema = t.schema;
        data = Array.init (Schema.num_fields t.schema) (fun _ -> Array.make capacity 0);
        size = t.size;
        capacity;
        base_addr =
          Addr.alloc addr ~bytes:(capacity * Schema.num_fields t.schema * t.elem_bytes);
        elem_bytes = t.elem_bytes;
      }
    in
    Array.iteri (fun f col -> Array.blit col 0 fresh.data.(f) 0 t.size) t.data;
    fresh
  end

let footprint_bytes t = t.capacity * Schema.num_fields t.schema * t.elem_bytes

let copy_row ~src ~src_row ~dst =
  let row = reserve dst in
  Array.iteri (fun f col -> dst.data.(f).(row) <- col.(src_row)) src.data
